// Package netem is a deterministic, composable network-condition engine:
// the adverse counterpart to the near-ideal network both substrates model by
// default. A Model passes a per-datagram verdict — deliver, drop, or deliver
// with extra delay — as a deterministic function of (endpoints, size, time)
// plus draws from the run's seeded rng. The same models drive the
// discrete-event simulator (internal/simnet) and the real-UDP runtime
// (internal/udpnet), so an adverse profile exercised in simulation
// reproduces on sockets.
//
// Both substrates consult the model at transmit time, with one placement
// difference: the simulator judges at the instant the datagram reaches the
// wire (after uplink serialization — drop verdicts spend the uplink but
// never arrive, delay verdicts extend propagation), while the real-UDP
// runtime judges as the datagram enters its paced sender, like a tc-netem
// qdisc in front of the device. The substrates therefore agree exactly for
// time-invariant models (loss rates, chains) and for schedule-driven models
// whenever the pacer backlog is small against the schedule's windows; a
// deeply backlogged sender straddling a window boundary can receive
// different verdicts for the queued tail, and delayed datagrams vacate
// pacing slots on sockets where the simulator charges serialization first.
//
// Stock models:
//
//   - Bernoulli: independent per-datagram loss (the substrates' default).
//   - GilbertElliott: the classic 2-state bursty-loss chain, stepped per
//     datagram with independent state per sender (its uplink), the
//     semantics of a tc-netem loss model on the sender's interface.
//   - Partitions: scheduled arbitrary node-set splits that heal — datagrams
//     crossing a split are dropped while it lasts.
//   - LatencySpikes: windows of extra one-way delay with linear ramps, for
//     spike and drift events.
//   - Directional: applies an inner model to one traffic direction only
//     (asymmetric degradation).
//   - FixedDelay, Stack: composition primitives.
//
// Models compose through an Engine, which consults them in order, counts
// per-model drops and delays, and carries the run's capability traces
// (time-varying advertised-capability rewrites, applied by the substrate).
// Engines are built from a data-only Config, so a profile travels through
// scenario configs, sweep variants, and command-line flags as plain data and
// materializes per-run state (rng-chosen node sets, chain state, counters)
// only at Build time — identical (Config, n, seed) build identical engines.
package netem

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Verdict is one datagram's fate: dropped, or delivered after Delay of
// extra one-way latency on top of the substrate's propagation model.
type Verdict struct {
	Drop  bool
	Delay time.Duration
}

// Model judges datagrams. Implementations must be deterministic functions of
// their own state, the arguments, and draws from rng. The sharded simulator
// judges concurrently — one call per in-flight sender, each with that
// sender's own rng — so any per-sender mutable state must be confined to
// the sending node's slot (GilbertElliott's chains are the template), and
// anything shared across senders must be read-only after Build or atomic.
// The real-UDP runtime judges under a node's mutex.
type Model interface {
	// Judge decides the fate of one datagram of the given wire size sent
	// from -> to at time now. rng is the substrate's seeded random stream.
	Judge(from, to wire.NodeID, size int, now time.Duration, rng *rand.Rand) Verdict
}

// Bernoulli drops each datagram independently with probability P. It is the
// substrates' default model (simnet builds one from Config.LossRate), and
// draws from rng only when P > 0 so the zero-config rng stream is unchanged.
type Bernoulli struct {
	P float64
}

// Judge implements Model.
func (b Bernoulli) Judge(_, _ wire.NodeID, _ int, _ time.Duration, rng *rand.Rand) Verdict {
	if b.P > 0 && rng.Float64() < b.P {
		return Verdict{Drop: true}
	}
	return Verdict{}
}

// FixedDelay adds a constant extra one-way delay to every datagram. Mostly
// useful inside Directional or Stack compositions.
type FixedDelay time.Duration

// Judge implements Model.
func (d FixedDelay) Judge(_, _ wire.NodeID, _ int, _ time.Duration, _ *rand.Rand) Verdict {
	return Verdict{Delay: time.Duration(d)}
}

// GEParams parameterizes a Gilbert-Elliott bursty-loss chain: a 2-state
// Markov chain stepped once per datagram, losing with LossGood in the good
// state and LossBad in the bad one. Mean burst length is 1/PBadGood
// datagrams; the steady-state bad share is PGoodBad/(PGoodBad+PBadGood).
type GEParams struct {
	PGoodBad float64 // per-datagram probability good -> bad
	PBadGood float64 // per-datagram probability bad -> good
	LossGood float64 // loss probability in the good state
	LossBad  float64 // loss probability in the bad state
}

// Validate checks the chain parameters.
func (p GEParams) Validate() error {
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"PGoodBad", p.PGoodBad}, {"PBadGood", p.PBadGood},
		{"LossGood", p.LossGood}, {"LossBad", p.LossBad},
	} {
		if !(v.v >= 0 && v.v <= 1) {
			return fmt.Errorf("netem: gilbert-elliott %s %v outside [0,1]", v.name, v.v)
		}
	}
	return nil
}

// GilbertElliott is the bursty-loss model: each *sender* runs its own chain,
// stepped once per datagram it emits — the semantics of a `tc netem` loss
// model on the sender's interface, and the right shape for this repo's
// uplink-centric network model (a burst hits the access link, so it
// correlates across that node's receivers but not across senders). Chains
// start in the good state and live in a dense slice indexed by sender id,
// so steady-state judging allocates nothing and memory is O(nodes), not
// O(links) — per-directed-link chains would grow toward n² entries under
// gossip's ever-changing target sets.
type GilbertElliott struct {
	p        GEParams
	bad      []bool // chain state per sender, dense by id, grown lazily
	overflow bool   // shared chain for out-of-range sender ids (hostile input)
}

// maxTrackedSender bounds the dense chain slice against hostile wire input
// on the real-UDP path, mirroring membership.MaxPeerID: node ids are dense,
// so anything past this is a forged sender id and shares one overflow chain
// instead of growing the slice on a peer's say-so.
const maxTrackedSender = 1 << 20

// NewGilbertElliott builds the model, panicking on invalid parameters (a
// wiring bug, matching the substrates' config validation style).
func NewGilbertElliott(p GEParams) *GilbertElliott {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	return &GilbertElliott{p: p}
}

// Presizer is implemented by models (and compositions) whose per-sender
// state can be grown ahead of need. The simulator presizes at every AddNode
// — a barrier-time operation — so that chain slots never grow inside a
// parallel window, where concurrent senders would race on the append.
type Presizer interface {
	// Presize guarantees slots for sender ids < n (capped internally
	// against hostile sizes).
	Presize(n int)
}

// Presize implements Presizer: grows the dense chain slice so senders below
// n never append on the Judge path.
func (g *GilbertElliott) Presize(n int) {
	if n > maxTrackedSender {
		n = maxTrackedSender
	}
	for len(g.bad) < n {
		g.bad = append(g.bad, false)
	}
}

// Judge implements Model: step the sender's chain, then lose with the
// state's probability. Exactly two rng draws per datagram, so the stream
// stays reproducible regardless of who talks to whom.
func (g *GilbertElliott) Judge(from, _ wire.NodeID, _ int, _ time.Duration, rng *rand.Rand) Verdict {
	slot := &g.overflow
	if from >= 0 && int64(from) < maxTrackedSender {
		for int(from) >= len(g.bad) {
			g.bad = append(g.bad, false)
		}
		slot = &g.bad[from]
	}
	step := rng.Float64()
	if *slot {
		if step < g.p.PBadGood {
			*slot = false
		}
	} else if step < g.p.PGoodBad {
		*slot = true
	}
	loss := g.p.LossGood
	if *slot {
		loss = g.p.LossBad
	}
	if rng.Float64() < loss {
		return Verdict{Drop: true}
	}
	return Verdict{}
}

// Partition is one scheduled split: from From (inclusive) to Until
// (exclusive), datagrams crossing group boundaries are dropped. Nodes listed
// in Groups belong to their group; unlisted nodes form one implicit extra
// group — so a single listed group isolates it from the rest of the system,
// and multiple groups express arbitrary node-set splits. At Until the
// partition heals and traffic flows again.
type Partition struct {
	From, Until time.Duration
	Groups      [][]wire.NodeID
}

// Partitions is the schedule-driven partition model.
type Partitions struct {
	parts []partState
}

// partState keeps group membership in a dense slice indexed by node id
// (-1 = the implicit group), so the per-datagram lookup on the simulator's
// transmit hot path is hash-free — consistent with the repo's dense-table
// design. Listed ids are bounded by the materialization pool, so the slice
// is O(n); judged ids beyond it (hostile wire input) read as implicit.
type partState struct {
	from, until time.Duration
	group       []int32
}

func (st *partState) groupOf(id wire.NodeID) int32 {
	if id >= 0 && int(id) < len(st.group) {
		return st.group[id]
	}
	return -1
}

// NewPartitions builds the model, panicking on an empty or unordered window
// or an empty group list.
func NewPartitions(parts ...Partition) *Partitions {
	p := &Partitions{parts: make([]partState, 0, len(parts))}
	for i, part := range parts {
		if part.Until <= part.From || part.From < 0 {
			panic(fmt.Sprintf("netem: partition %d window [%v,%v) is empty or negative", i, part.From, part.Until))
		}
		if len(part.Groups) == 0 {
			panic(fmt.Sprintf("netem: partition %d has no groups", i))
		}
		maxID := wire.NodeID(-1)
		for _, ids := range part.Groups {
			for _, id := range ids {
				if id < 0 {
					panic(fmt.Sprintf("netem: partition %d lists negative node id %d", i, id))
				}
				if id > maxID {
					maxID = id
				}
			}
		}
		st := partState{from: part.From, until: part.Until, group: make([]int32, maxID+1)}
		for j := range st.group {
			st.group[j] = -1
		}
		for g, ids := range part.Groups {
			for _, id := range ids {
				st.group[id] = int32(g)
			}
		}
		p.parts = append(p.parts, st)
	}
	return p
}

// Judge implements Model: drop when any active partition separates the
// endpoints. No rng draws.
func (p *Partitions) Judge(from, to wire.NodeID, _ int, now time.Duration, _ *rand.Rand) Verdict {
	for i := range p.parts {
		st := &p.parts[i]
		if now < st.from || now >= st.until {
			continue
		}
		if st.groupOf(from) != st.groupOf(to) {
			return Verdict{Drop: true}
		}
	}
	return Verdict{}
}

// Spike is one window of extra one-way delay: Extra at the plateau, with a
// linear ramp of Ramp on the way in and out (drift), or a square pulse when
// Ramp is zero. Windows may overlap; their extras add.
type Spike struct {
	At       time.Duration
	Duration time.Duration
	Extra    time.Duration
	Ramp     time.Duration
}

// LatencySpikes is the schedule-driven delay model.
type LatencySpikes struct {
	spikes []Spike
}

// NewLatencySpikes builds the model, panicking on non-positive windows or
// negative parameters.
func NewLatencySpikes(spikes ...Spike) *LatencySpikes {
	for i, s := range spikes {
		if s.At < 0 || s.Duration <= 0 || s.Extra < 0 || s.Ramp < 0 {
			panic(fmt.Sprintf("netem: spike %d has a non-positive window or negative parameters", i))
		}
	}
	return &LatencySpikes{spikes: spikes}
}

// Judge implements Model. No rng draws.
func (l *LatencySpikes) Judge(_, _ wire.NodeID, _ int, now time.Duration, _ *rand.Rand) Verdict {
	var extra time.Duration
	for _, s := range l.spikes {
		if now < s.At || now >= s.At+s.Duration {
			continue
		}
		frac := 1.0
		if s.Ramp > 0 {
			if in := now - s.At; in < s.Ramp {
				frac = float64(in) / float64(s.Ramp)
			}
			if out := s.At + s.Duration - now; out < s.Ramp {
				if f := float64(out) / float64(s.Ramp); f < frac {
					frac = f
				}
			}
		}
		extra += time.Duration(float64(s.Extra) * frac)
	}
	return Verdict{Delay: extra}
}

// NodeSet is a set of node ids used to scope Directional models, stored as
// a dense membership slice so the per-datagram check on the transmit hot
// path is hash-free (listed ids are bounded by the materialization pool).
// The zero NodeSet is "unset" and matches every node; NewNodeSet() with no
// ids is an empty set matching none.
type NodeSet struct {
	dense []bool
}

// NewNodeSet builds a NodeSet from ids (negative ids are ignored).
func NewNodeSet(ids ...wire.NodeID) NodeSet {
	max := -1
	for _, id := range ids {
		if int(id) > max {
			max = int(id)
		}
	}
	s := NodeSet{dense: make([]bool, max+1)}
	for _, id := range ids {
		if id >= 0 {
			s.dense[id] = true
		}
	}
	return s
}

// Contains reports set membership; ids beyond the dense range (including
// hostile wire input) are not members.
func (s NodeSet) Contains(id wire.NodeID) bool {
	return id >= 0 && int(id) < len(s.dense) && s.dense[id]
}

// Directional applies Inner only to datagrams whose sender is in From and
// whose receiver is in To (an unset zero-value set matches every node) —
// per-direction asymmetric degradation. Datagrams outside the scope pass
// untouched and consume none of Inner's rng draws.
type Directional struct {
	Inner    Model
	From, To NodeSet
}

// Judge implements Model.
func (d Directional) Judge(from, to wire.NodeID, size int, now time.Duration, rng *rand.Rand) Verdict {
	if d.From.dense != nil && !d.From.Contains(from) {
		return Verdict{}
	}
	if d.To.dense != nil && !d.To.Contains(to) {
		return Verdict{}
	}
	return d.Inner.Judge(from, to, size, now, rng)
}

// Boundary applies Inner only to datagrams that cross the boundary of Set:
// exactly one endpoint inside it. Region-targeted degradations (a flaky WAN
// link between one cluster and the rest of the world) compose from it at
// Build time. Datagrams that do not cross pass untouched and consume none
// of Inner's rng draws.
type Boundary struct {
	Inner Model
	Set   NodeSet
}

// Judge implements Model.
func (b Boundary) Judge(from, to wire.NodeID, size int, now time.Duration, rng *rand.Rand) Verdict {
	if b.Set.Contains(from) == b.Set.Contains(to) {
		return Verdict{}
	}
	return b.Inner.Judge(from, to, size, now, rng)
}

// Stack composes models: consulted in order, extra delays add, and the first
// drop wins (later models are then not consulted, so their rng draws are
// skipped — fine for same-seed reproducibility, which is all we promise).
type Stack []Model

// Judge implements Model.
func (s Stack) Judge(from, to wire.NodeID, size int, now time.Duration, rng *rand.Rand) Verdict {
	var out Verdict
	for _, m := range s {
		v := m.Judge(from, to, size, now, rng)
		if v.Drop {
			return Verdict{Drop: true}
		}
		out.Delay += v.Delay
	}
	return out
}

// ModelStats counts one model's verdicts inside an Engine.
type ModelStats struct {
	// Name labels the model in reports ("base-loss", "gilbert-elliott", ...).
	Name string
	// Judged counts datagrams this model ruled on.
	Judged int64
	// Drops counts drop verdicts.
	Drops int64
	// Delayed counts non-zero extra-delay verdicts; DelaySum totals them.
	Delayed  int64
	DelaySum time.Duration
}

// CapStep is one point of a capability trace: at At, the node's upload
// capability — its uplink rate and, unless the trace is silent, its claim —
// becomes Factor times its base value.
type CapStep struct {
	At     time.Duration
	Factor float64
}

// CapTrace is a materialized time-varying capability trace: every node in
// Nodes walks the same Steps (relative to its own base capability). The
// substrate applies it — the simulator rewrites the uplink capacity and the
// HEAP estimator's advertised value; heapnode rewrites its advertisement.
// Silent traces touch only the real capacity and leave the advertisement
// alone (see CapTraceSpec.Silent).
type CapTrace struct {
	Nodes  []wire.NodeID
	Steps  []CapStep
	Silent bool
}

// Engine is a per-run composition of named models with verdict counters,
// plus the run's capability traces. It implements Model; build one from a
// Config, or assemble directly with NewEngine/Add for tests. The counters
// are atomic — concurrent shards judging different senders bump them
// without locks, and because counter sums are order-independent, the
// reported stats stay byte-identical at every shard count.
type Engine struct {
	models    []Model
	names     []string
	counts    []modelCounters
	capTraces []CapTrace
}

// modelCounters is one model's verdict tally, atomically updated.
type modelCounters struct {
	judged   atomic.Int64
	drops    atomic.Int64
	delayed  atomic.Int64
	delaySum atomic.Int64
}

// NewEngine returns an empty engine (every datagram delivered untouched).
func NewEngine() *Engine { return &Engine{} }

// Add appends a named model; consultation follows insertion order. Returns
// the engine for chaining.
func (e *Engine) Add(name string, m Model) *Engine {
	e.models = append(e.models, m)
	e.names = append(e.names, name)
	e.counts = append(e.counts, modelCounters{})
	return e
}

// Presize implements Presizer, forwarding to every composed model that
// keeps per-sender state (one composition level deep, matching how Build
// assembles engines).
func (e *Engine) Presize(n int) {
	for _, m := range e.models {
		presizeModel(m, n)
	}
}

func presizeModel(m Model, n int) {
	switch mm := m.(type) {
	case Presizer:
		mm.Presize(n)
	case Directional:
		presizeModel(mm.Inner, n)
	case Stack:
		for _, inner := range mm {
			presizeModel(inner, n)
		}
	}
}

// AddCapTrace appends a materialized capability trace.
func (e *Engine) AddCapTrace(t CapTrace) { e.capTraces = append(e.capTraces, t) }

// CapTraces returns the engine's capability traces for the substrate to
// apply.
func (e *Engine) CapTraces() []CapTrace { return e.capTraces }

// NodeStep is one capability-trace step as it covers one node.
type NodeStep struct {
	CapStep
	Silent bool
}

// NodeSteps returns each traced node's steps, trace by trace and in step
// order within a trace: the order in which the substrates apply steps that
// fall due at one instant.
func (e *Engine) NodeSteps() map[wire.NodeID][]NodeStep {
	out := make(map[wire.NodeID][]NodeStep)
	for _, tr := range e.capTraces {
		for _, id := range tr.Nodes {
			for _, st := range tr.Steps {
				out[id] = append(out[id], NodeStep{CapStep: st, Silent: tr.Silent})
			}
		}
	}
	return out
}

// InForce returns the factor of the step in force at t among a node's
// steps (a NodeSteps list) and whether one is: the latest step at or
// before t, and of steps at one instant the later in the list. For the
// node's claim, silent steps are passed over — they scale the uplink only.
func InForce(steps []NodeStep, t time.Duration, claim bool) (factor float64, ok bool) {
	var at time.Duration
	for _, st := range steps {
		if st.At <= t && (!ok || st.At >= at) && !(claim && st.Silent) {
			factor, at, ok = st.Factor, st.At, true
		}
	}
	return factor, ok
}

// Judge implements Model: models are consulted in order, delays add, the
// first drop wins and short-circuits (drop verdicts discard accumulated
// delay — the datagram never arrives). Delay counters commit only for
// datagrams that actually fly, so Delayed/DelaySum agree with the
// substrate's delivered-with-delay accounting (simnet's MsgsNetemDelay)
// instead of crediting delays to datagrams a later model dropped.
func (e *Engine) Judge(from, to wire.NodeID, size int, now time.Duration, rng *rand.Rand) Verdict {
	// Per-call delay scratch on the stack: Judge runs concurrently across
	// shards, so nothing mutable may live on the engine itself. Eight slots
	// cover every profile Build can assemble; larger hand-built engines
	// spill to an allocation.
	var delayBuf [8]time.Duration
	delays := delayBuf[:0]
	var out Verdict
	for i, m := range e.models {
		c := &e.counts[i]
		c.judged.Add(1)
		v := m.Judge(from, to, size, now, rng)
		if v.Drop {
			c.drops.Add(1)
			return Verdict{Drop: true}
		}
		delays = append(delays, v.Delay)
		out.Delay += v.Delay
	}
	for i, d := range delays {
		if d > 0 {
			e.counts[i].delayed.Add(1)
			e.counts[i].delaySum.Add(int64(d))
		}
	}
	return out
}

// Stats returns a copy of the per-model counters in consultation order.
func (e *Engine) Stats() []ModelStats {
	out := make([]ModelStats, len(e.counts))
	for i := range e.counts {
		c := &e.counts[i]
		out[i] = ModelStats{
			Name:     e.names[i],
			Judged:   c.judged.Load(),
			Drops:    c.drops.Load(),
			Delayed:  c.delayed.Load(),
			DelaySum: time.Duration(c.delaySum.Load()),
		}
	}
	return out
}

var _ Model = (*Engine)(nil)
var _ Model = Bernoulli{}
var _ Model = (*GilbertElliott)(nil)
var _ Model = (*Partitions)(nil)
var _ Model = (*LatencySpikes)(nil)
var _ Model = Directional{}
var _ Model = Stack(nil)
var _ Model = FixedDelay(0)
