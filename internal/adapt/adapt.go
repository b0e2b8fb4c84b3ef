// Package adapt implements congestion-driven capability re-estimation: the
// closed loop between a node's *observed* transmit pressure and the upload
// capability it advertises to HEAP's aggregation protocol.
//
// The paper assumes capabilities are "user-provided or measured at join
// time" (§2.2) and trusts them for the rest of the run. That trust is
// exactly what the degraded-node sensitivity study breaks: a node whose real
// capacity silently falls below its advertised value keeps attracting serve
// load proportional to its claim, its uplink queue grows without bound, and
// a few percent of such nodes absorb the whole capability margin. The
// controller here watches the symptoms the paper itself names (§3.6: "upload
// queues tend to grow larger"), plus tail drops and achieved-vs-advertised
// throughput, and rewrites the advertisement so fanout sheds load *before*
// the queue sheds packets.
//
// # Control law
//
// The controller is a deterministic AIMD-style state machine sampled at a
// fixed interval from the node's execution context (no goroutines, no
// wall-clock reads, no randomness — adapt-enabled runs stay bit-reproducible):
//
//   - Multiplicative decrease: after SustainWindows consecutive observation
//     windows with the uplink backlog above HighWater (or any tail drops),
//     the effective capability is cut to Beta times its value — or directly
//     to the achieved throughput measured over the last window, when that is
//     lower still (a saturated uplink's drain rate *is* its real capacity).
//   - Additive probe: after DrainedWindows consecutive windows with the
//     backlog below LowWater and no drops, the estimate climbs by
//     ProbeFraction of the configured capability per window, so a recovered
//     node works its way back to its full advertisement.
//   - Hysteresis: a decrease starts a cooldown during which congestion
//     evidence is ignored (the queue needs time to drain at the lower
//     fanout), and decrease/probe streaks reset each other. The estimate
//     never leaves [FloorFraction·configured, configured], so adaptation can
//     neither advertise beyond the operator's claim nor shrink a node out of
//     the dissemination graph.
//
// The effective value feeds two consumers: aggregation.Estimator.SetSelfCapKbps
// (HEAP's fanout then tracks the *measured* capability) and the engine's
// fanout-budget allocator (multi-stream sends rebalance off the same value).
// See internal/core for the wiring and docs/ARCHITECTURE.md for the layer map.
package adapt

import (
	"fmt"
	"time"
)

// Config parameterizes the controller. The zero value selects the defaults
// listed on each field; Validate checks a fully defaulted copy, so a zero
// Config is always valid.
type Config struct {
	// Interval is the observation cadence. The engine quantizes it to its
	// gossip rounds (samples are taken on the first round at or after each
	// interval boundary). Default 500 ms.
	Interval time.Duration
	// HighWater is the uplink backlog (queued serialization time) above
	// which a window counts as congested. The default (1 s) sits above the
	// sub-second transients a healthy gossip round produces — the paper's
	// §3.6 symptom is queues of *seconds* — so well-provisioned nodes never
	// trip the controller.
	HighWater time.Duration
	// LowWater is the backlog below which a window counts as drained.
	// Must stay below HighWater (the gap is the hysteresis band).
	// Default 200 ms.
	LowWater time.Duration
	// SustainWindows is how many consecutive congested windows trigger a
	// multiplicative decrease. Default 3.
	SustainWindows int
	// DrainedWindows is how many consecutive drained windows arm the upward
	// probe; once armed, the estimate climbs every further drained window.
	// Default 10.
	DrainedWindows int
	// Beta is the multiplicative decrease factor in (0, 1). Default 0.7.
	Beta float64
	// ProbeFraction is the additive probe step as a fraction of the
	// configured capability. Default 0.05.
	ProbeFraction float64
	// FloorFraction bounds the estimate from below at
	// FloorFraction·configured, in (0, 1). Default 0.1.
	FloorFraction float64
}

// cooldownWindows is how many windows after a decrease congestion evidence
// is ignored, giving the queue time to drain at the lower fanout before the
// next verdict.
const cooldownWindows = 4

// withDefaults returns a copy with every zero field filled in.
func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.HighWater == 0 {
		c.HighWater = time.Second
	}
	if c.LowWater == 0 {
		c.LowWater = 200 * time.Millisecond
	}
	if c.SustainWindows == 0 {
		c.SustainWindows = 3
	}
	if c.DrainedWindows == 0 {
		c.DrainedWindows = 10
	}
	if c.Beta == 0 {
		c.Beta = 0.7
	}
	if c.ProbeFraction == 0 {
		c.ProbeFraction = 0.05
	}
	if c.FloorFraction == 0 {
		c.FloorFraction = 0.1
	}
	return c
}

// Validate checks the configuration (after applying defaults, so the zero
// value passes).
func (c *Config) Validate() error {
	d := c.withDefaults()
	if d.Interval <= 0 {
		return fmt.Errorf("adapt: interval %v must be positive", d.Interval)
	}
	if d.HighWater <= 0 || d.LowWater <= 0 || d.LowWater >= d.HighWater {
		return fmt.Errorf("adapt: watermarks low %v / high %v must satisfy 0 < low < high",
			d.LowWater, d.HighWater)
	}
	if d.SustainWindows < 1 || d.DrainedWindows < 1 {
		return fmt.Errorf("adapt: window counts (sustain %d, drained %d) out of range",
			d.SustainWindows, d.DrainedWindows)
	}
	if !(0 < d.Beta && d.Beta < 1) {
		return fmt.Errorf("adapt: beta %v outside (0, 1)", d.Beta)
	}
	if !(0 < d.ProbeFraction && d.ProbeFraction <= 1) {
		return fmt.Errorf("adapt: probe fraction %v outside (0, 1]", d.ProbeFraction)
	}
	if !(0 < d.FloorFraction && d.FloorFraction < 1) {
		return fmt.Errorf("adapt: floor fraction %v outside (0, 1)", d.FloorFraction)
	}
	return nil
}

// Sample is one observation of a node's transmit pressure. The substrate
// fills it from whatever models the uplink: the simulator's per-node queue
// (simnet.QueueBacklog / QueueBacklogBytes / NodeStats.SentBytes) or the
// real-socket paced sender (ratelimit.Sender.QueueBacklog / QueuedBytes /
// AcceptedBytes / Dropped). Both SentBytes and QueuedBytes must sit on the
// enqueue side of the queue — never feed a transmit-counted total into
// SentBytes.
type Sample struct {
	// At is when the sample was taken (the node's clock). Filled in by the
	// engine, not the signal function.
	At time.Duration
	// Backlog is the time until the uplink queue drains at the current real
	// capacity — the paper's §3.6 congestion symptom.
	Backlog time.Duration
	// SentBytes is the monotonic count of bytes handed to the uplink
	// (enqueue side, UDP overhead included).
	SentBytes int64
	// QueuedBytes is the bytes currently waiting in the uplink queue.
	// Achieved throughput over a window is ΔSentBytes − ΔQueuedBytes: what
	// actually left the node, immune to enqueue-side inflation.
	QueuedBytes int64
	// Dropped is the monotonic count of datagrams tail-dropped by a bounded
	// send queue (0 on substrates with unbounded queues).
	Dropped int64
}

// Readvertisement is one effective-capability change, for traces.
type Readvertisement struct {
	At      time.Duration
	EffKbps uint32
}

// Controller is one node's re-estimation state machine. Not safe for
// concurrent use: all access happens on the node's execution context,
// like every protocol handler.
type Controller struct {
	cfg        Config
	configured uint32
	floor      uint32
	eff        uint32

	primed   bool
	last     Sample
	highRun  int
	lowRun   int
	cooldown int

	achievedKbps float64
	readv        int
	trace        []Readvertisement
}

// maxTraceEntries bounds the re-advertisement trace a controller retains: a
// long-lived node on a flappy uplink re-advertises indefinitely, and the
// trace must not grow with it. When full, the oldest half is dropped, so
// the most recent history always survives; Readvertisements keeps the true
// total.
const maxTraceEntries = 4096

// NewController builds a controller for a node whose configured (advertised)
// capability is configuredKbps. The estimate starts at the configured value
// and stays within [FloorFraction·configured, configured] forever.
func NewController(cfg Config, configuredKbps uint32) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if configuredKbps == 0 {
		return nil, fmt.Errorf("adapt: zero configured capability")
	}
	d := cfg.withDefaults()
	floor := uint32(d.FloorFraction * float64(configuredKbps))
	if floor == 0 {
		floor = 1
	}
	return &Controller{
		cfg:        d,
		configured: configuredKbps,
		floor:      floor,
		eff:        configuredKbps,
	}, nil
}

// Interval returns the observation cadence.
func (c *Controller) Interval() time.Duration { return c.cfg.Interval }

// ConfiguredKbps returns the configured (ceiling) capability.
func (c *Controller) ConfiguredKbps() uint32 { return c.configured }

// FloorKbps returns the lower clamp of the estimate.
func (c *Controller) FloorKbps() uint32 { return c.floor }

// EffectiveKbps returns the current effective capability estimate.
func (c *Controller) EffectiveKbps() uint32 { return c.eff }

// AchievedKbps returns the throughput measured over the last observation
// window (0 before the second sample) — diagnostics only.
func (c *Controller) AchievedKbps() float64 { return c.achievedKbps }

// Trace returns the re-advertisement history (excluding the initial
// configured value), bounded to the most recent maxTraceEntries changes.
// The returned slice is owned by the controller.
func (c *Controller) Trace() []Readvertisement { return c.trace }

// Readvertisements returns how many times the estimate changed (the true
// total, even past the trace bound).
func (c *Controller) Readvertisements() int { return c.readv }

// Collect emits the controller's state as named samples — the registration
// surface for a telemetry registry. Must run serialized with Observe, like
// the other accessors.
func (c *Controller) Collect(emit func(name string, value float64)) {
	emit("adapt_configured_kbps", float64(c.configured))
	emit("adapt_effective_kbps", float64(c.eff))
	emit("adapt_achieved_kbps", c.achievedKbps)
	emit("adapt_readvertisements_total", float64(c.readv))
}

// Observe feeds one pressure sample and returns the effective capability
// plus whether it changed. The first sample only primes the deltas.
func (c *Controller) Observe(s Sample) (uint32, bool) {
	if !c.primed {
		c.primed = true
		c.last = s
		return c.eff, false
	}
	dt := s.At - c.last.At
	if dt <= 0 {
		return c.eff, false
	}
	drained := (s.SentBytes - c.last.SentBytes) - (s.QueuedBytes - c.last.QueuedBytes)
	c.achievedKbps = float64(drained) * 8 / dt.Seconds() / 1000
	droppedDelta := s.Dropped - c.last.Dropped
	c.last = s

	congested := s.Backlog >= c.cfg.HighWater || droppedDelta > 0
	idle := s.Backlog <= c.cfg.LowWater && droppedDelta == 0

	if c.cooldown > 0 {
		c.cooldown--
		c.highRun = 0
	} else if congested {
		c.highRun++
	} else {
		c.highRun = 0
	}
	if idle {
		c.lowRun++
	} else {
		c.lowRun = 0
	}

	switch {
	case c.highRun >= c.cfg.SustainWindows:
		// A saturated uplink's drain rate is its real capacity: cut straight
		// to the measured throughput when that undercuts the Beta step — but
		// never below Beta² per decision, so one distorted window (a rate
		// rewrite revaluing the queue mid-measurement, a clock hiccup)
		// cannot collapse the estimate; a genuinely lower capacity just
		// takes one more cut to reach.
		target := float64(c.eff) * c.cfg.Beta
		if guard := float64(c.eff) * c.cfg.Beta * c.cfg.Beta; c.achievedKbps > 0 && c.achievedKbps < target {
			target = c.achievedKbps
			if target < guard {
				target = guard
			}
		}
		c.highRun, c.lowRun = 0, 0
		c.cooldown = cooldownWindows
		return c.set(s.At, uint32(target))
	case c.lowRun >= c.cfg.DrainedWindows && c.eff < c.configured:
		// Probe upward every drained window once the streak is established;
		// lowRun keeps counting, so recovery is ProbeFraction·configured per
		// interval after the initial DrainedWindows delay.
		step := uint32(c.cfg.ProbeFraction * float64(c.configured))
		if step == 0 {
			step = 1
		}
		return c.set(s.At, c.eff+step)
	}
	return c.eff, false
}

// set clamps kbps into [floor, configured] and records the change, if any.
func (c *Controller) set(at time.Duration, kbps uint32) (uint32, bool) {
	if kbps < c.floor {
		kbps = c.floor
	}
	if kbps > c.configured {
		kbps = c.configured
	}
	if kbps == c.eff {
		return c.eff, false
	}
	c.eff = kbps
	c.readv++
	if len(c.trace) >= maxTraceEntries {
		n := copy(c.trace, c.trace[len(c.trace)-maxTraceEntries/2:])
		c.trace = c.trace[:n]
	}
	c.trace = append(c.trace, Readvertisement{At: at, EffKbps: kbps})
	return c.eff, true
}
