package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/wire"
)

// This file defines the LargeScale scenario family: runs well past the
// paper's 270-node testbed (1k-20k nodes), with the dynamics that only show
// up at that scale — flash-crowd join waves, correlated churn bursts, and
// bimodal capability distributions. The family leans on the zero-allocation
// simulator hot path and uses the Cyclon peer-sampling service by default,
// because full-membership views cost O(n²) memory across the system and
// stop being a sane model somewhere past a thousand nodes.

// JoinWave is one flash-crowd join: Count nodes join together at At.
type JoinWave struct {
	// At is when the wave joins (absolute virtual time).
	At time.Duration
	// Count is how many nodes join.
	Count int
}

// ChurnBurst is one correlated failure burst.
type ChurnBurst struct {
	// At is when the burst starts.
	At time.Duration
	// Fraction of the then-alive non-source nodes that crash.
	Fraction float64
	// Spread staggers the individual crashes uniformly over [At, At+Spread]
	// (correlated, not simultaneous). Default 2 s.
	Spread time.Duration
	// NotifyMean is the mean delay until a survivor's full-membership view
	// drops the burst's victims (one sweep per survivor per burst; PSS
	// views learn organically instead). Default 10 s.
	NotifyMean time.Duration
}

// totalNodes is the system size once every join wave has arrived.
func (c *Config) totalNodes() int {
	n := c.Nodes
	for _, w := range c.JoinWaves {
		n += w.Count
	}
	return n
}

// validateDynamics checks the LargeScale dynamics fields; called from
// applyDefaults.
func (c *Config) validateDynamics() error {
	_, streamsEnd := c.streamsSpan()
	horizon := streamsEnd + c.Drain
	var prev time.Duration
	for i, w := range c.JoinWaves {
		if w.Count <= 0 {
			return fmt.Errorf("scenario: join wave %d has count %d", i, w.Count)
		}
		if w.At <= 0 || w.At >= horizon {
			return fmt.Errorf("scenario: join wave %d at %v outside (0, %v)", i, w.At, horizon)
		}
		if w.At < prev {
			return fmt.Errorf("scenario: join waves not sorted by time")
		}
		prev = w.At
	}
	if len(c.JoinWaves) > 0 && c.Protocol == StaticTree {
		return fmt.Errorf("scenario: join waves are incompatible with the static tree")
	}
	for i, b := range c.ChurnBursts {
		if !(b.Fraction >= 0 && b.Fraction < 1) {
			return fmt.Errorf("scenario: churn burst %d fraction %v outside [0,1)", i, b.Fraction)
		}
		if b.At <= 0 {
			return fmt.Errorf("scenario: churn burst %d at %v", i, b.At)
		}
		if b.Spread < 0 || b.NotifyMean < 0 {
			return fmt.Errorf("scenario: churn burst %d has negative spread or notify mean", i)
		}
		// Every individual crash must land inside the run, or the burst's
		// victims would be recorded without ever actually crashing.
		if end := b.withDefaults(); end.At+end.Spread >= horizon {
			return fmt.Errorf("scenario: churn burst %d (at %v + spread %v) outside the run horizon %v",
				i, b.At, end.Spread, horizon)
		}
	}
	return nil
}

// withDefaults resolves a burst's zero-value knobs without mutating the
// caller's ChurnBursts slice (Config copies share its backing array, so
// writing defaults through it would race across concurrent runs).
func (b ChurnBurst) withDefaults() ChurnBurst {
	if b.Spread == 0 {
		b.Spread = 2 * time.Second
	}
	if b.NotifyMean == 0 {
		b.NotifyMean = 10 * time.Second
	}
	return b
}

// applyChurnBursts schedules the configured failure bursts. Victims are
// chosen lazily at burst time among the then-alive non-source nodes, so
// bursts compose with join waves and with each other. The returned slice is
// filled in as bursts execute; read it only after the run completes.
func applyChurnBursts(net *simnet.Network, cfg *Config, nodes []*stack.Node, victims *[]wire.NodeID) {
	if len(cfg.ChurnBursts) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xb0057))
	sources := make(map[wire.NodeID]bool)
	for _, sp := range cfg.effectiveStreams() {
		sources[sp.Source] = true
	}
	for _, burst := range cfg.ChurnBursts {
		b := burst.withDefaults()
		net.Schedule(b.At, func() {
			candidates := make([]wire.NodeID, 0, net.NumNodes())
			for i := 1; i < net.NumNodes(); i++ {
				if id := wire.NodeID(i); !sources[id] && net.Alive(id) {
					candidates = append(candidates, id)
				}
			}
			rng.Shuffle(len(candidates), func(i, j int) {
				candidates[i], candidates[j] = candidates[j], candidates[i]
			})
			n := int(b.Fraction * float64(len(candidates)))
			if n > len(candidates) {
				n = len(candidates)
			}
			burst := candidates[:n:n]
			*victims = append(*victims, burst...)
			for _, v := range burst {
				v := v
				at := net.Now()
				if b.Spread > 0 {
					at += time.Duration(rng.Int63n(int64(b.Spread) + 1))
				}
				net.Schedule(at, func() { net.Crash(v) })
			}
			// One notification sweep per survivor: after an independent
			// delay the survivor's full view drops every burst victim at
			// once. O(survivors) events per burst, vs the O(survivors ×
			// victims) per-pair schedule of churn.Catastrophic — the
			// difference between feasible and not at 10k+ nodes. Survivors
			// are enumerated when the burst has finished crashing, so
			// flash-crowd nodes joining mid-burst are notified too (nodes
			// joining after that instant never see the victims at all:
			// their bootstrap views filter on liveness).
			net.Schedule(net.Now()+b.Spread, func() {
				for i := 0; i < net.NumNodes(); i++ {
					view := nodes[i].View
					if view == nil || !net.Alive(wire.NodeID(i)) {
						continue
					}
					delay := time.Duration(0)
					if b.NotifyMean > 0 {
						delay = time.Duration(rng.Int63n(int64(2 * b.NotifyMean)))
					}
					net.Schedule(net.Now()+delay, func() {
						for _, v := range burst {
							view.Remove(v)
						}
					})
				}
			})
		})
	}
}

// Bimodal700 is the LargeScale family's default capability distribution: a
// small well-provisioned minority and a large constrained majority (mean
// ~705 kbps, CSR ~1.17 against the paper's 600 kbps stream — the same
// regime as Table 1, pushed to the bimodal extreme).
var Bimodal700 = &ClassDistribution{DistName: "bimodal-700", Classes: []Class{
	{Name: "3Mbps", Kbps: 3000, Fraction: 0.15},
	{Name: "300kbps", Kbps: 300, Fraction: 0.85},
}}

func init() {
	Distributions[Bimodal700.Name()] = Bimodal700
}

// LargeScaleBase returns the family's base configuration for a system of n
// nodes: HEAP over Cyclon peer sampling, the bimodal distribution, a short
// stream (the interesting dynamics happen within a few windows at this
// scale), and a fanout of ln(n)+1.4 — the paper's reliability threshold
// evaluated at the actual system size instead of at 270.
func LargeScaleBase(n int, seed int64) Config {
	return Config{
		Name:        fmt.Sprintf("large-%d", n),
		Nodes:       n,
		Protocol:    HEAP,
		Dist:        Bimodal700,
		Fanout:      math.Round((math.Log(float64(n))+1.4)*100) / 100,
		Windows:     5,
		Seed:        seed,
		StreamStart: 5 * time.Second,
		Drain:       30 * time.Second,
		UsePSS:      true,
	}
}

// LargeScaleXL returns a configuration for the 100k-1M range, where two more
// costs dominate beyond what LargeScaleBase already handles: the per-node
// capability tables (AggTrackLimit caps them — aggregation is otherwise O(n²)
// system-wide) and wall-clock itself (Shards splits the event loop across
// cores; results are byte-identical at any shard count). The stream is cut to
// a single window with a short drain: at this scale one window is hundreds of
// millions of events, and the dynamics of interest — dissemination latency
// and fanout adaptation under extreme n — show up within it.
func LargeScaleXL(n int, seed int64, shards int) Config {
	c := LargeScaleBase(n, seed)
	c.Name = fmt.Sprintf("xl-%d", n)
	c.Windows = 1
	c.StreamStart = 2 * time.Second
	c.Drain = 10 * time.Second
	c.Shards = shards
	// 256 tracked entries keep bbar's standard error in the mid single
	// digits for the bimodal distribution while holding each node's
	// capability table, presized at the limit, to 256 × 16 B = 4 KB — the
	// untracked table is what made 1M nodes run out of memory.
	c.AggTrackLimit = 256
	return c
}

// largeScaleSizeFanout re-derives the fanout as ln(n)+1.4 from the cell's
// node count (rounded to 0.01 so cell names stay readable), shared by every
// LargeScale variant including the adverse-network ones.
func largeScaleSizeFanout(c *Config) {
	if c.Nodes > 0 {
		c.Fanout = math.Round((math.Log(float64(c.Nodes))+1.4)*100) / 100
	}
}

// LargeScaleVariants returns the family's sweep axis: the steady-state
// baseline, a flash crowd joining a quarter of the system mid-stream, two
// correlated churn bursts, and the combination. Every variant re-derives the
// fanout as ln(n)+1.4 from the cell's node count, so a Nodes axis sweeps the
// reliability threshold along with the size.
func LargeScaleVariants() []Variant {
	sizeFanout := largeScaleSizeFanout
	flashCrowd := func(c *Config) {
		// A quarter of the initial system floods in shortly after the
		// stream starts, in two back-to-back waves.
		c.JoinWaves = []JoinWave{
			{At: 8 * time.Second, Count: c.Nodes / 8},
			{At: 10 * time.Second, Count: c.Nodes / 8},
		}
	}
	churnBursts := func(c *Config) {
		c.ChurnBursts = []ChurnBurst{
			{At: 8 * time.Second, Fraction: 0.05},
			{At: 11 * time.Second, Fraction: 0.10},
		}
	}
	return []Variant{
		{Name: "steady", Mutate: sizeFanout},
		{Name: "flashcrowd", Mutate: func(c *Config) { sizeFanout(c); flashCrowd(c) }},
		{Name: "churnbursts", Mutate: func(c *Config) { sizeFanout(c); churnBursts(c) }},
		{Name: "mixed", Mutate: func(c *Config) { sizeFanout(c); flashCrowd(c); churnBursts(c) }},
	}
}

// LargeScaleSweep builds the large-N grid: the variant axis crossed with the
// given system sizes.
func LargeScaleSweep(nodes []int, replicas int, seed int64, workers int) Sweep {
	if len(nodes) == 0 {
		nodes = []int{1000, 5000}
	}
	return Sweep{
		Base:     LargeScaleBase(nodes[0], seed),
		Nodes:    nodes,
		Variants: LargeScaleVariants(),
		Replicas: replicas,
		BaseSeed: seed,
		Workers:  workers,
		DropRuns: true,
	}
}
