package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/wire"
)

// Config is a declarative, data-only description of adverse network
// conditions. It travels through scenario configs, sweep variants, and
// command-line flags as plain data; Build materializes the per-run state
// (rng-chosen node sets, Gilbert-Elliott chains, counters) into an Engine.
// Fraction-based specs choose among nodes 1..n-1 (Build), or among the
// actual deployment ids (BuildForNodes) — node 0, by the repo-wide
// convention the stream source, is never selected implicitly; list it in an
// explicit node slice to include it.
type Config struct {
	// Name labels the profile in reports and cell keys.
	Name string

	// Bernoulli is extra independent per-datagram loss in [0,1), on top of
	// the substrate's base loss rate.
	Bernoulli float64

	// GE enables Gilbert-Elliott bursty loss.
	GE *GEParams

	// Partitions schedules node-set splits with heal.
	Partitions []PartitionSpec

	// Spikes schedules extra-latency windows (spike and drift events).
	Spikes []Spike

	// RegionSpikes schedules extra-latency windows that hit only datagrams
	// crossing a topology-region boundary — a degrading WAN link, while
	// intra-cluster traffic stays clean. Requires a region resolver at Build
	// (scenario supplies it when Config.Topology is set).
	RegionSpikes []RegionSpike

	// Asym degrades a set of nodes asymmetrically, per traffic direction.
	Asym *AsymSpec

	// CapTraces rewrite advertised upload capabilities mid-run.
	CapTraces []CapTraceSpec
}

// PartitionSpec describes one scheduled partition. Exactly one of Groups
// (explicit node sets), SplitFractions (random sets materialized at Build),
// or Regions (topology-cluster sets, resolved by a region-resolving build)
// must be set: SplitFractions lists the size of each rng-chosen group as a
// fraction of the system; the remainder forms the implicit last group. Each
// Regions entry lists the cluster indices forming one group, so the
// partition falls along a real topology cut instead of a random node set.
type PartitionSpec struct {
	From, Until    time.Duration
	Groups         [][]wire.NodeID
	SplitFractions []float64
	Regions        [][]int
}

// RegionSpike scopes one latency spike to the boundary of a region set: the
// extra delay applies exactly when one endpoint's cluster is in Regions and
// the other's is not.
type RegionSpike struct {
	Spike   Spike
	Regions []int
}

// AsymSpec degrades the listed nodes (or an rng-chosen Fraction of the
// system) per direction: Rx* applies to datagrams they receive, Tx* to
// datagrams they send. Zero-valued knobs are inactive.
type AsymSpec struct {
	Nodes    []wire.NodeID
	Fraction float64
	RxLoss   float64
	TxLoss   float64
	RxDelay  time.Duration
	TxDelay  time.Duration
}

// CapTraceSpec describes one capability trace applied to the listed nodes
// (or an rng-chosen Fraction of the system). Steps must be sorted by At and
// carry positive factors; a final Factor of 1 models recovery. A Silent
// trace rewrites only the node's *real* capacity, not its advertised
// capability: the node keeps claiming full capability while delivering a
// fraction of it — the unnoticed-degradation regime whose discovery is the
// adaptation layer's job (internal/adapt). Non-silent traces model a node
// that re-measures and honestly re-advertises.
type CapTraceSpec struct {
	Nodes    []wire.NodeID
	Fraction float64
	Steps    []CapStep
	Silent   bool
}

// Validate checks the whole description without materializing it. Range
// checks are written so that a NaN fails them.
func (c *Config) Validate() error {
	// Explicit node ids must be sane before Build turns them into dense
	// membership slices: a negative id would panic mid-Build, and an absurd
	// id would size a slice from a config field's say-so.
	checkIDs := func(what string, ids []wire.NodeID) error {
		for _, id := range ids {
			if id < 0 || id >= maxTrackedSender {
				return fmt.Errorf("netem: %s lists node id %d outside [0, %d)", what, id, maxTrackedSender)
			}
		}
		return nil
	}
	if !(c.Bernoulli >= 0 && c.Bernoulli < 1) {
		return fmt.Errorf("netem: bernoulli loss %v outside [0,1)", c.Bernoulli)
	}
	if c.GE != nil {
		if err := c.GE.Validate(); err != nil {
			return err
		}
	}
	for i, p := range c.Partitions {
		if p.Until <= p.From || p.From < 0 {
			return fmt.Errorf("netem: partition %d window [%v,%v) is empty or negative", i, p.From, p.Until)
		}
		set := 0
		for _, present := range []bool{len(p.Groups) > 0, len(p.SplitFractions) > 0, len(p.Regions) > 0} {
			if present {
				set++
			}
		}
		if set != 1 {
			return fmt.Errorf("netem: partition %d needs exactly one of Groups, SplitFractions, or Regions", i)
		}
		for j, g := range p.Regions {
			if len(g) == 0 {
				return fmt.Errorf("netem: partition %d region group %d is empty", i, j)
			}
			for _, r := range g {
				if r < 0 {
					return fmt.Errorf("netem: partition %d lists negative region %d", i, r)
				}
			}
		}
		for _, g := range p.Groups {
			if err := checkIDs(fmt.Sprintf("partition %d", i), g); err != nil {
				return err
			}
		}
		var sum float64
		for _, f := range p.SplitFractions {
			if !(f > 0 && f < 1) {
				return fmt.Errorf("netem: partition %d split fraction %v outside (0,1)", i, f)
			}
			sum += f
		}
		if sum >= 1 {
			return fmt.Errorf("netem: partition %d split fractions sum to %v, want < 1 (the remainder is the implicit group)", i, sum)
		}
	}
	for i, s := range c.Spikes {
		if s.At < 0 || s.Duration <= 0 || s.Extra < 0 || s.Ramp < 0 {
			return fmt.Errorf("netem: spike %d has a non-positive window or negative parameters", i)
		}
	}
	for i, rs := range c.RegionSpikes {
		s := rs.Spike
		if s.At < 0 || s.Duration <= 0 || s.Extra < 0 || s.Ramp < 0 {
			return fmt.Errorf("netem: region spike %d has a non-positive window or negative parameters", i)
		}
		if len(rs.Regions) == 0 {
			return fmt.Errorf("netem: region spike %d lists no regions", i)
		}
		for _, r := range rs.Regions {
			if r < 0 {
				return fmt.Errorf("netem: region spike %d lists negative region %d", i, r)
			}
		}
	}
	if a := c.Asym; a != nil {
		if !(a.Fraction >= 0 && a.Fraction < 1) {
			return fmt.Errorf("netem: asym fraction %v outside [0,1)", a.Fraction)
		}
		if !(a.RxLoss >= 0 && a.RxLoss < 1 && a.TxLoss >= 0 && a.TxLoss < 1) {
			return fmt.Errorf("netem: asym loss outside [0,1)")
		}
		if a.RxDelay < 0 || a.TxDelay < 0 {
			return fmt.Errorf("netem: negative asym delay")
		}
		if len(a.Nodes) == 0 && a.Fraction == 0 {
			return fmt.Errorf("netem: asym spec selects no nodes")
		}
		if err := checkIDs("asym spec", a.Nodes); err != nil {
			return err
		}
		if a.RxLoss == 0 && a.TxLoss == 0 && a.RxDelay == 0 && a.TxDelay == 0 {
			return fmt.Errorf("netem: asym spec has no effect")
		}
	}
	for i, tr := range c.CapTraces {
		if !(tr.Fraction >= 0 && tr.Fraction < 1) {
			return fmt.Errorf("netem: cap trace %d fraction %v outside [0,1)", i, tr.Fraction)
		}
		if len(tr.Nodes) == 0 && tr.Fraction == 0 {
			return fmt.Errorf("netem: cap trace %d selects no nodes", i)
		}
		if len(tr.Steps) == 0 {
			return fmt.Errorf("netem: cap trace %d has no steps", i)
		}
		if err := checkIDs(fmt.Sprintf("cap trace %d", i), tr.Nodes); err != nil {
			return err
		}
		var prev time.Duration
		for j, st := range tr.Steps {
			if st.At < prev {
				return fmt.Errorf("netem: cap trace %d steps not sorted by time", i)
			}
			if !(st.Factor > 0) || math.IsInf(st.Factor, 1) {
				return fmt.Errorf("netem: cap trace %d step %d factor %v must be positive and finite", i, j, st.Factor)
			}
			prev = st.At
		}
	}
	return nil
}

// Build materializes the description for a system of n nodes into an Engine.
// The substrate's base independent loss is consulted first (as model
// "base-loss", preserving the rng draw order of the plain loss-rate path),
// then the adverse models in a fixed order. Node-set materialization draws
// from an rng derived from seed, so identical (Config, n, seed) build
// identical engines — the property that keeps sweeps worker-count
// independent and same-seed runs byte-identical.
//
// regionOf, for runs embedded in a clustered topology, maps each node to its
// cluster index (topo.Topology.ClusterOf), letting region-targeted specs
// (PartitionSpec.Regions, RegionSpikes) resolve to concrete node sets along
// the topology's real cuts. Unlike fraction-based picks, region resolution
// includes node 0 — a cut isolates whatever region the source lives in too.
// Nil means no topology, which region-targeted specs refuse.
func (c *Config) Build(n int, seed int64, baseLoss float64, regionOf func(wire.NodeID) int) (*Engine, error) {
	pool := make([]wire.NodeID, 0, n)
	for id := 1; id < n; id++ {
		pool = append(pool, wire.NodeID(id))
	}
	return c.buildPool(pool, seed, baseLoss, regionOf)
}

// usesRegions reports whether any spec needs a region resolver.
func (c *Config) usesRegions() bool {
	if len(c.RegionSpikes) > 0 {
		return true
	}
	for _, p := range c.Partitions {
		if len(p.Regions) > 0 {
			return true
		}
	}
	return false
}

// regionMembers resolves a cluster-index set to the node ids in it, scanning
// the pool plus node 0 (the source convention excludes 0 only from random
// picks, not from topology cuts).
func regionMembers(pool []wire.NodeID, regionOf func(wire.NodeID) int, regions []int) []wire.NodeID {
	want := make(map[int]bool, len(regions))
	for _, r := range regions {
		want[r] = true
	}
	var out []wire.NodeID
	if want[regionOf(0)] {
		out = append(out, 0)
	}
	for _, id := range pool {
		if id != 0 && want[regionOf(id)] {
			out = append(out, id)
		}
	}
	return out
}

// BuildForNodes is Build for deployments whose node ids are not dense
// 0..n-1 (real peers files may use any ids): fraction-based specs
// materialize over the given id list instead, minus id 0 when present (the
// source convention). Every node of a deployment must pass the same id set
// and seed — order does not matter, ids are sorted — to materialize
// identical partitions and traces.
func (c *Config) BuildForNodes(ids []wire.NodeID, seed int64, baseLoss float64) (*Engine, error) {
	pool := make([]wire.NodeID, 0, len(ids))
	for _, id := range ids {
		if id > 0 {
			pool = append(pool, id)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	return c.buildPool(pool, seed, baseLoss, nil)
}

// buildPool does the materialization over the candidate pool for
// fraction-based node selections; regionOf (nil without a topology) resolves
// region-targeted specs.
func (c *Config) buildPool(pool []wire.NodeID, seed int64, baseLoss float64, regionOf func(wire.NodeID) int) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.usesRegions() && regionOf == nil {
		return nil, fmt.Errorf("netem: config %q targets topology regions; build it with a topology (scenario: set Config.Topology)", c.Name)
	}
	if !(0 <= baseLoss && baseLoss < 1) {
		return nil, fmt.Errorf("netem: base loss %v outside [0,1)", baseLoss)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6e65746d)) // "netm"
	e := NewEngine()
	e.Add("base-loss", Bernoulli{P: baseLoss})
	if c.Bernoulli > 0 {
		e.Add("bernoulli", Bernoulli{P: c.Bernoulli})
	}
	if c.GE != nil {
		ge := NewGilbertElliott(*c.GE)
		ge.Presize(len(pool) + 1) // chains ready before any parallel Judge
		e.Add("gilbert-elliott", ge)
	}
	if len(c.Partitions) > 0 {
		parts := make([]Partition, 0, len(c.Partitions))
		for _, spec := range c.Partitions {
			groups := spec.Groups
			if len(groups) == 0 && len(spec.Regions) > 0 {
				groups = make([][]wire.NodeID, 0, len(spec.Regions))
				for _, rg := range spec.Regions {
					groups = append(groups, regionMembers(pool, regionOf, rg))
				}
			}
			if len(groups) == 0 {
				groups = SplitGroups(rng, pool, spec.SplitFractions)
			}
			parts = append(parts, Partition{From: spec.From, Until: spec.Until, Groups: groups})
		}
		e.Add("partition", NewPartitions(parts...))
	}
	if len(c.Spikes) > 0 {
		e.Add("spike", NewLatencySpikes(c.Spikes...))
	}
	for i, rs := range c.RegionSpikes {
		set := NewNodeSet(regionMembers(pool, regionOf, rs.Regions)...)
		e.Add(fmt.Sprintf("region-spike-%d", i), Boundary{Inner: NewLatencySpikes(rs.Spike), Set: set})
	}
	if a := c.Asym; a != nil {
		set := NewNodeSet(pickNodes(rng, pool, a.Nodes, a.Fraction)...)
		if a.RxLoss > 0 || a.RxDelay > 0 {
			e.Add("asym-rx", Directional{Inner: lossDelay(a.RxLoss, a.RxDelay), To: set})
		}
		if a.TxLoss > 0 || a.TxDelay > 0 {
			e.Add("asym-tx", Directional{Inner: lossDelay(a.TxLoss, a.TxDelay), From: set})
		}
	}
	for _, spec := range c.CapTraces {
		steps := make([]CapStep, len(spec.Steps))
		copy(steps, spec.Steps)
		e.AddCapTrace(CapTrace{
			Nodes:  pickNodes(rng, pool, spec.Nodes, spec.Fraction),
			Steps:  steps,
			Silent: spec.Silent,
		})
	}
	return e, nil
}

// lossDelay composes a one-direction degradation from its active parts.
func lossDelay(loss float64, delay time.Duration) Model {
	var s Stack
	if loss > 0 {
		s = append(s, Bernoulli{P: loss})
	}
	if delay > 0 {
		s = append(s, FixedDelay(delay))
	}
	return s
}

// fractionCount turns a positive fraction of a pool into a node count,
// never rounding below one: on a tiny deployment a 25% split must still
// partition somebody, not silently materialize an empty set.
func fractionCount(fraction float64, pool int) int {
	k := int(math.Round(fraction * float64(pool)))
	if k == 0 && fraction > 0 && pool > 0 {
		k = 1
	}
	if k > pool {
		k = pool
	}
	return k
}

// pickNodes resolves a node selection: the explicit list if given, otherwise
// a uniformly chosen fraction of the candidate pool in ascending id order.
func pickNodes(rng *rand.Rand, pool []wire.NodeID, explicit []wire.NodeID, fraction float64) []wire.NodeID {
	if len(explicit) > 0 {
		out := make([]wire.NodeID, len(explicit))
		copy(out, explicit)
		return out
	}
	if len(pool) == 0 {
		return nil
	}
	perm := rng.Perm(len(pool))
	k := fractionCount(fraction, len(pool))
	out := make([]wire.NodeID, 0, k)
	for _, p := range perm[:k] {
		out = append(out, pool[p])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SplitGroups draws disjoint node sets, one per fraction (each rounded by
// fractionCount, the last ones clipped to what is left), from one
// permutation of pool, each in ascending id order. Partitions materialize
// SplitFractions with it — the unassigned remainder stays in the implicit
// group — and the scenario layer its adversary classes.
func SplitGroups(rng *rand.Rand, pool []wire.NodeID, fractions []float64) [][]wire.NodeID {
	perm := rng.Perm(len(pool))
	groups := make([][]wire.NodeID, 0, len(fractions))
	next := 0
	for _, f := range fractions {
		k := fractionCount(f, len(pool))
		if k > len(perm)-next {
			k = len(perm) - next
		}
		g := make([]wire.NodeID, 0, k)
		for _, p := range perm[next : next+k] {
			g = append(g, pool[p])
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		groups = append(groups, g)
		next += k
	}
	return groups
}
