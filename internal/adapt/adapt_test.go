package adapt

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sampler builds a monotone Sample stream with a helper for feeding the
// controller evenly spaced windows of a given backlog.
type sampler struct {
	t         *testing.T
	c         *Controller
	now       time.Duration
	sent      int64
	queued    int64
	dropped   int64
	rateKbps  int64 // enqueue rate backing SentBytes between samples
	drainKbps int64 // drain rate backing QueuedBytes evolution
}

// step advances one interval with the given instantaneous backlog and
// returns Observe's outcome. SentBytes grows by the enqueue rate; QueuedBytes
// is set so the implied achieved throughput equals drainKbps.
func (s *sampler) step(backlog time.Duration) (uint32, bool) {
	s.t.Helper()
	dt := s.c.Interval()
	s.now += dt
	enq := s.rateKbps * 1000 / 8 * int64(dt) / int64(time.Second)
	drain := s.drainKbps * 1000 / 8 * int64(dt) / int64(time.Second)
	s.sent += enq
	s.queued += enq - drain
	if s.queued < 0 {
		s.queued = 0
	}
	return s.c.Observe(Sample{
		At:          s.now,
		Backlog:     backlog,
		SentBytes:   s.sent,
		QueuedBytes: s.queued,
		Dropped:     s.dropped,
	})
}

func newSampler(t *testing.T, c *Controller, enqueueKbps, drainKbps int64) *sampler {
	t.Helper()
	s := &sampler{t: t, c: c, rateKbps: enqueueKbps, drainKbps: drainKbps}
	// Prime the delta state: the first sample never changes the estimate.
	if _, changed := s.step(0); changed {
		t.Fatal("first sample changed the estimate")
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	zero := Config{}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults): %v", err)
	}
	bad := []Config{
		{Beta: 1.5},
		{Beta: -0.1},
		{Beta: math.NaN()},
		{FloorFraction: 1},
		{FloorFraction: math.NaN()},
		{ProbeFraction: 2},
		{ProbeFraction: math.NaN()},
		{LowWater: time.Second, HighWater: time.Millisecond},
		{SustainWindows: -1},
		{Interval: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if _, err := NewController(Config{}, 0); err == nil {
		t.Error("zero configured capability accepted")
	}
}

func TestDecreaseOnSustainedBacklog(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, c, 1000, 500) // enqueueing 1000 kbps, draining 500
	// Below SustainWindows consecutive congested windows: no change.
	for i := 0; i < c.cfg.SustainWindows-1; i++ {
		if _, changed := s.step(time.Second); changed {
			t.Fatalf("decreased after only %d congested windows", i+1)
		}
	}
	eff, changed := s.step(time.Second)
	if !changed {
		t.Fatal("no decrease after SustainWindows congested windows")
	}
	// Achieved (500) is below the Beta step (700), so the cut lands on the
	// measured throughput.
	if eff != 500 {
		t.Fatalf("eff = %d, want 500 (cut to achieved throughput)", eff)
	}
	if got := c.EffectiveKbps(); got != eff {
		t.Fatalf("EffectiveKbps() = %d, want %d", got, eff)
	}
	if len(c.Trace()) != 1 || c.Trace()[0].EffKbps != 500 {
		t.Fatalf("trace = %+v, want one entry at 500", c.Trace())
	}
}

func TestBetaCutWhenAchievedIsHigher(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Achieved 900 kbps exceeds the Beta target (700): the Beta step wins.
	s := newSampler(t, c, 1000, 900)
	var eff uint32
	var changed bool
	for i := 0; i < c.cfg.SustainWindows; i++ {
		eff, changed = s.step(time.Second)
	}
	if !changed || eff != 700 {
		t.Fatalf("eff = %d (changed=%v), want the beta cut 700", eff, changed)
	}
}

func TestDropsCountAsCongestion(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, c, 100, 100)
	for i := 0; i < c.cfg.SustainWindows; i++ {
		s.dropped++ // backlog stays zero, but the bounded queue is shedding
		if _, changed := s.step(0); changed {
			if i < c.cfg.SustainWindows-1 {
				t.Fatalf("decreased after %d dropping windows", i+1)
			}
			return
		}
	}
	t.Fatal("tail drops never triggered a decrease")
}

func TestCooldownBlocksBackToBackDecreases(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, c, 1000, 500)
	for i := 0; i < c.cfg.SustainWindows; i++ {
		s.step(time.Second)
	}
	first := c.EffectiveKbps()
	// During the cooldown, continued congestion must not cut again.
	for i := 0; i < cooldownWindows; i++ {
		if _, changed := s.step(time.Second); changed {
			t.Fatalf("decrease during cooldown window %d", i+1)
		}
	}
	// After the cooldown, a fresh sustained streak is required.
	for i := 0; i < c.cfg.SustainWindows-1; i++ {
		if _, changed := s.step(time.Second); changed {
			t.Fatalf("decrease before a fresh sustained streak (window %d)", i+1)
		}
	}
	if _, changed := s.step(time.Second); !changed {
		t.Fatal("no decrease after cooldown plus a fresh sustained streak")
	}
	if c.EffectiveKbps() >= first {
		t.Fatalf("second cut did not lower the estimate: %d -> %d", first, c.EffectiveKbps())
	}
}

func TestProbeRecoversTowardConfigured(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, c, 1000, 400)
	for i := 0; i < c.cfg.SustainWindows; i++ {
		s.step(time.Second)
	}
	low := c.EffectiveKbps()
	if low >= 1000 {
		t.Fatalf("setup: no decrease happened (eff %d)", low)
	}
	// Drained stream: after DrainedWindows the probe starts and then climbs
	// every window until the configured ceiling.
	s.rateKbps, s.drainKbps = 100, 100
	for i := 0; i < c.cfg.DrainedWindows-1; i++ {
		if _, changed := s.step(0); changed {
			t.Fatalf("probe before the drained streak completed (window %d)", i+1)
		}
	}
	eff, changed := s.step(0)
	if !changed || eff != low+50 { // ProbeFraction 0.05 of 1000
		t.Fatalf("first probe: eff=%d changed=%v, want %d", eff, changed, low+50)
	}
	for i := 0; i < 100 && c.EffectiveKbps() < 1000; i++ {
		s.step(0)
	}
	if c.EffectiveKbps() != 1000 {
		t.Fatalf("probe stalled at %d, want full recovery to 1000", c.EffectiveKbps())
	}
	// At the ceiling, further drained windows change nothing.
	if _, changed := s.step(0); changed {
		t.Fatal("estimate changed past the configured ceiling")
	}
}

func TestBetaSquaredGuardsOneNoisyWindow(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Achieved collapses to ~1% of the estimate (the shape of a distorted
	// window: a queue revalued mid-measurement). One decision may cut at
	// most to Beta² of the estimate, not to the bogus measurement.
	s := newSampler(t, c, 1000, 10)
	var eff uint32
	var changed bool
	for i := 0; i < c.cfg.SustainWindows; i++ {
		eff, changed = s.step(time.Second)
	}
	if !changed {
		t.Fatal("no decrease after the sustained streak")
	}
	if want := uint32(float64(1000) * c.cfg.Beta * c.cfg.Beta); eff != want {
		t.Fatalf("eff = %d, want the beta-squared guard %d", eff, want)
	}
}

func TestTraceBoundedCountExact(t *testing.T) {
	c, err := NewController(Config{DrainedWindows: 1, ProbeFraction: 0.001}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate saturation and drain so the estimate changes far more often
	// than the trace bound.
	s := newSampler(t, c, 1000, 500)
	changes := 0
	for i := 0; i < 3*maxTraceEntries; i++ {
		var changed bool
		if i%8 < 4 {
			_, changed = s.step(10 * time.Second)
		} else {
			_, changed = s.step(0)
		}
		if changed {
			changes++
		}
	}
	if changes <= maxTraceEntries {
		t.Fatalf("setup produced only %d changes; need more than the %d bound", changes, maxTraceEntries)
	}
	if got := c.Readvertisements(); got != changes {
		t.Fatalf("Readvertisements() = %d, want the true total %d", got, changes)
	}
	if got := len(c.Trace()); got > maxTraceEntries {
		t.Fatalf("trace holds %d entries, bound is %d", got, maxTraceEntries)
	}
	// The retained suffix is the most recent history.
	last := c.Trace()[len(c.Trace())-1]
	if last.EffKbps != c.EffectiveKbps() {
		t.Fatalf("trace tail %d does not match the current estimate %d", last.EffKbps, c.EffectiveKbps())
	}
}

func TestFloorClamp(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Drain rate ~0: achieved throughput collapses, but the estimate must
	// stop at the floor.
	s := newSampler(t, c, 1000, 1)
	for i := 0; i < 200; i++ {
		s.step(10 * time.Second)
	}
	if got, want := c.EffectiveKbps(), c.FloorKbps(); got != want {
		t.Fatalf("eff = %d, want the floor %d", got, want)
	}
	if c.FloorKbps() != 100 { // FloorFraction 0.1 of 1000
		t.Fatalf("floor = %d, want 100", c.FloorKbps())
	}
}

// TestPropertyEstimateStaysWithinBounds is the satellite's property test:
// under arbitrary (seeded-random) signal sequences the estimate never
// exceeds the configured capability and never drops below the floor, and
// the trace records exactly the changes.
func TestPropertyEstimateStaysWithinBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		configured := uint32(1 + rng.Intn(5000))
		c, err := NewController(Config{}, configured)
		if err != nil {
			t.Fatal(err)
		}
		var now time.Duration
		var sent int64
		var dropped int64
		prev := c.EffectiveKbps()
		changes := 0
		for i := 0; i < 500; i++ {
			// Irregular cadence, bursty backlogs, arbitrary byte growth,
			// occasional drops — and deliberately inconsistent queued bytes.
			now += time.Duration(1+rng.Intn(2000)) * time.Millisecond
			sent += int64(rng.Intn(1 << 20))
			if rng.Intn(10) == 0 {
				dropped += int64(rng.Intn(5))
			}
			eff, changed := c.Observe(Sample{
				At:          now,
				Backlog:     time.Duration(rng.Intn(20_000)) * time.Millisecond,
				SentBytes:   sent,
				QueuedBytes: int64(rng.Intn(1 << 22)),
				Dropped:     dropped,
			})
			if eff > configured {
				t.Fatalf("seed %d step %d: eff %d exceeds configured %d", seed, i, eff, configured)
			}
			if eff < c.FloorKbps() {
				t.Fatalf("seed %d step %d: eff %d below floor %d", seed, i, eff, c.FloorKbps())
			}
			if changed != (eff != prev) {
				t.Fatalf("seed %d step %d: changed=%v but eff %d -> %d", seed, i, changed, prev, eff)
			}
			if changed {
				changes++
				last := c.Trace()[len(c.Trace())-1]
				if last.EffKbps != eff || last.At != now {
					t.Fatalf("seed %d step %d: trace tail %+v does not match change to %d at %v",
						seed, i, last, eff, now)
				}
			}
			prev = eff
		}
		if got := c.Readvertisements(); got != changes {
			t.Fatalf("seed %d: %d trace entries, observed %d changes", seed, got, changes)
		}
	}
}

// TestObserveIgnoresNonMonotonicTime guards the delta math: a sample with a
// time at or before the previous one must be inert.
func TestObserveIgnoresNonMonotonicTime(t *testing.T) {
	c, err := NewController(Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(Sample{At: time.Second})
	if _, changed := c.Observe(Sample{At: time.Second, Backlog: time.Hour}); changed {
		t.Fatal("zero-dt sample changed the estimate")
	}
	if _, changed := c.Observe(Sample{At: time.Millisecond, Backlog: time.Hour}); changed {
		t.Fatal("backwards sample changed the estimate")
	}
}
