// Package simnet is a deterministic discrete-event network simulator that
// substitutes for the paper's PlanetLab testbed (see DESIGN.md §2).
//
// The model mirrors the experimental setup of the paper (§3.1):
//
//   - Every node owns one uplink of configurable capacity. A datagram of
//     wire size S occupies the uplink for 8·(S+28)/capacity seconds;
//     datagrams queue FIFO behind it, which is exactly the application-level
//     throttling queue the paper implements above UDP. Congestion therefore
//     manifests as queueing delay, the symptom driving the paper's results.
//   - Propagation latency is a stable per-pair base plus per-message jitter.
//   - Datagrams are lost independently with a configurable probability
//     (and, optionally, tail-dropped when the uplink queue exceeds a delay
//     bound). Adverse conditions beyond independent loss — bursty loss,
//     partitions, latency spikes, asymmetric degradation — plug in through
//     Config.Netem (internal/netem), consulted on every transmit.
//   - Downlinks are unconstrained (the paper constrains upload only).
//   - Nodes can crash (messages still in their uplink queue are lost, as the
//     paper observes in §3.6) and freeze (deliveries and timers are deferred,
//     modelling the overloaded PlanetLab hosts of §3.5).
//
// # Sharded execution
//
// The simulator partitions nodes across Config.Shards shards (node id mod
// S), each with its own calendar event queue, pooled free list, and dense node
// rows. Shards run lock-free between time-bucketed exchange barriers: a
// window [T, T+L) is safe to process in parallel because every cross-shard
// datagram incurs at least L of propagation latency (the latency model's
// MinLatency — the conservative lookahead of classic parallel discrete-event
// simulation), so nothing sent inside a window can be due before the next
// barrier. Cross-shard deliveries are buffered in per-shard outboxes and
// merged at the barrier.
//
// Determinism is shard-count invariant: every event carries a canonical key
// (at, src, srcSeq) — virtual time, the id of the node that created the
// event, and that node's private monotonic sequence number — and each
// shard's queue pops in exactly that total order. Because the key is derived
// only from the creating node's own deterministic history (never from a
// global counter or arrival interleaving), the same seed produces
// byte-identical results at any shard count; the gob-fingerprint determinism
// suite in internal/scenario enforces this at S ∈ {1, 2, 8}. Scheduled
// callbacks (Schedule), node starts, and every mutating control operation
// (Crash, Freeze, AddNode, SetUploadBps) run in the global context at
// barriers, with all shards parked.
//
// All randomness is per-node: each node owns a protocol rng (env.Runtime's
// Rand) and a transmit rng (netem loss draws), both tiny splitmix64 streams
// derived from the run seed and the node id, so draw sequences are
// independent of how shards interleave.
//
// The event loop is built for scale: events and the message copies they
// carry live in per-shard free-list pools and three-tier calendar queues, so
// the steady-state hot path (send, deliver, timer) allocates nothing. The uplink backlog the model above
// creates is thousands of pending events per shard; the queue keeps them in
// a ring of 4096 buckets of 2^20 ns (≈ 1.05 ms), each an intrusive list
// through the pooled event itself, so a push is two stores, and only the
// bucket under the cursor — a few dozen events — is ever heap-ordered (cur).
// Events beyond the ring's ≈ 4.3 s horizon wait in a second small heap (far)
// and move into the ring as the cursor advances; when the ring is empty the
// cursor jumps straight to far's earliest, so idle time is free. The one
// invariant is cur ≤ every ring bucket ≤ far, with ties broken by the full
// key inside cur only. Both constants are fixed, not configurable: 99.8 % or
// more of pushes on both benchmark workloads land inside the horizon (see
// shard.go). Timers have no handles and are never canceled, so an event
// leaves the queue only by being popped: no tombstones, no unlinking, no
// back-pointers from event to tier. Node state lives in one dense table (a
// flat slice indexed by id), so runs up to the 1<<20-node ceiling (the event
// key's tie-break field; AddNode enforces it) are bounded by per-node
// protocol state, not by the simulator core.
package simnet

import (
	"fmt"

	"math/rand"
	"time"

	"repro/internal/env"
	"repro/internal/netem"
	"repro/internal/wire"
)

// LatencyModel produces one-way propagation delays. Implementations must be
// pure functions of (from, to, stamp): no shared state, no rng — that is
// what keeps latency independent of event interleaving, which both the
// sharded runtime and shard-count-invariant fingerprints rely on. stamp is
// the sender's message count: how many of its messages reached propagation
// before this one (0 for its first), the key for per-message jitter. Timers
// do not advance it, so how many timers a node arms moves none of its
// messages.
type LatencyModel interface {
	Latency(from, to wire.NodeID, stamp uint64) time.Duration
	// MinLatency is a lower bound on Latency over all arguments. It is the
	// sharded runtime's conservative lookahead: shards process one
	// MinLatency-wide window between exchange barriers. A zero bound forces
	// sequential execution (Config.Shards is clamped to 1).
	MinLatency() time.Duration
}

// ConstantLatency applies the same one-way delay to every message.
type ConstantLatency time.Duration

// Latency implements LatencyModel.
func (c ConstantLatency) Latency(_, _ wire.NodeID, _ uint64) time.Duration {
	return time.Duration(c)
}

// MinLatency implements LatencyModel.
func (c ConstantLatency) MinLatency() time.Duration { return time.Duration(c) }

// PairwiseLatency assigns each unordered node pair a stable base delay drawn
// uniformly from [Min, Max] (keyed deterministically by Seed) and adds
// per-message jitter derived by hashing (Seed, pair, sender, stamp) —
// no rng is consumed, so delays are independent of event ordering. This
// approximates a wide-area testbed: stable paths of heterogeneous length
// with small per-packet variation.
type PairwiseLatency struct {
	Min, Max time.Duration
	Jitter   time.Duration
	Seed     uint64
}

// NewPairwiseLatency builds a PairwiseLatency keyed by seed, so per-pair
// base latencies are reproducible across runs and processes. An inverted
// range or negative bound panics: that is a wiring bug, not a runtime
// condition (matching the loss-rate validation in New).
func NewPairwiseLatency(seed int64, min, max, jitter time.Duration) *PairwiseLatency {
	if min < 0 || max < min || jitter < 0 {
		panic(fmt.Sprintf("simnet: invalid pairwise latency [%v, %v] jitter %v", min, max, jitter))
	}
	return &PairwiseLatency{Min: min, Max: max, Jitter: jitter, Seed: uint64(seed)}
}

// Latency implements LatencyModel. The base is symmetric (keyed by the
// unordered pair); jitter is keyed by the directed sender and its stamp, so
// every datagram of a flow gets its own draw.
func (p *PairwiseLatency) Latency(from, to wire.NodeID, stamp uint64) time.Duration {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	h := splitmix64(p.Seed ^ (uint64(uint32(lo))<<32 | uint64(uint32(hi))))
	span := int64(p.Max - p.Min)
	base := p.Min
	if span > 0 {
		base += time.Duration(h % uint64(span+1))
	}
	if p.Jitter > 0 {
		j := splitmix64(h ^ (uint64(uint32(from)) << 20) ^ stamp)
		base += time.Duration(j % uint64(int64(p.Jitter)+1))
	}
	return base
}

// MinLatency implements LatencyModel.
func (p *PairwiseLatency) MinLatency() time.Duration { return p.Min }

// splitmix64 is a strong 64-bit mixing function (Steele et al.), used for
// stable per-pair latency derivation and the per-node rng streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitmixSource is an 8-byte rand.Source64: the splitmix64 generator
// proper (increment by the golden-ratio gamma, then mix). math/rand's
// default source carries a ~5 KB lagged-Fibonacci table, which at two rngs
// per node would cost ~10 GB for a million-node run; this source makes
// per-node rng state free.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// Config parameterizes a simulated network.
type Config struct {
	// Seed drives all randomness (loss, jitter, per-node protocol rngs).
	Seed int64
	// Latency is the propagation model. Nil means ConstantLatency(0).
	Latency LatencyModel
	// LossRate is the independent per-datagram loss probability in [0, 1).
	LossRate float64
	// Netem is the network-condition model consulted on every transmit
	// (after uplink serialization, before propagation). Nil installs
	// netem.Bernoulli{P: LossRate} — the plain independent-loss path, with
	// an identical rng draw sequence. A non-nil model replaces that path
	// entirely, so fold the base loss into the model (netem.Config.Build
	// does this as its "base-loss" stage); LossRate is then ignored.
	Netem netem.Model
	// MaxQueueDelay tail-drops a datagram when the sender's uplink queue
	// already holds more than this much serialization time. Zero means
	// unbounded (the paper's application-level queue is unbounded).
	MaxQueueDelay time.Duration
	// Shards is how many event-loop shards the simulation runs across
	// (goroutines between exchange barriers). 0 or 1 is sequential. Results
	// are byte-identical at any shard count; pick runtime.GOMAXPROCS(0)
	// for wall-clock speed. Clamped to 1 when the latency model's
	// MinLatency is zero: with no lookahead there is no safe window.
	Shards int
	// RegionOf labels each node with a topology region (cluster) index for
	// traffic accounting: sends whose endpoints carry different labels count
	// into NodeStats.InterRegionBytes/Msgs — the WAN-byte measurement of
	// topology-aware runs. Nil disables the labeling and keeps those
	// counters at zero. Purely observational: delivery, latency, and netem
	// verdicts are unaffected.
	RegionOf func(wire.NodeID) int
}

// NodeConfig parameterizes one simulated node.
type NodeConfig struct {
	// UploadBps is the uplink capacity in bits per second. Zero means
	// unconstrained (used for the Figure 1 experiment).
	UploadBps int64
}

// Stats aggregates network-wide counters.
type Stats struct {
	MsgsSent        int64
	MsgsDelivered   int64
	MsgsLost        int64 // dropped by the netem model (loss, bursts, partitions)
	MsgsTailDrop    int64 // uplink queue overflow (only if MaxQueueDelay > 0)
	MsgsDeadDrop    int64 // sender crashed before transmit finished, or dead destination
	MsgsNetemDelay  int64 // delivered with extra netem delay (spikes, asym paths)
	BytesSent       int64 // includes UDP/IP overhead
	EventsProcessed int64 // dispatched simulator events (deliveries, timers, funcs)
}

func (s *Stats) add(o Stats) {
	s.MsgsSent += o.MsgsSent
	s.MsgsDelivered += o.MsgsDelivered
	s.MsgsLost += o.MsgsLost
	s.MsgsTailDrop += o.MsgsTailDrop
	s.MsgsDeadDrop += o.MsgsDeadDrop
	s.MsgsNetemDelay += o.MsgsNetemDelay
	s.BytesSent += o.BytesSent
	s.EventsProcessed += o.EventsProcessed
}

// streamStatSlots bounds the per-stream sent-byte accounting: streams 0
// through streamStatSlots-2 get their own slot, everything beyond folds into
// the last slot. Matches the handful of concurrent streams multi-source runs
// use in practice.
const streamStatSlots = 8

// NodeStats aggregates per-node counters; byte counts include the 28-byte
// per-datagram UDP/IP overhead so that utilization can be compared against
// the node's capacity exactly as the paper's rate limiter does.
type NodeStats struct {
	SentBytes  int64
	RecvBytes  int64
	SentByKind [16]int64 // indexed by wire.Kind
	// SentByStream breaks dissemination bytes (Propose/Request/Serve) down
	// by stream id; streams >= streamStatSlots-1 share the last slot.
	// Non-dissemination traffic (aggregation, shuffles) is not counted here.
	SentByStream [streamStatSlots]int64
	SentMsgs     int64
	RecvMsgs     int64
	// InterRegionBytes/InterRegionMsgs count sent traffic whose destination
	// carries a different Config.RegionOf label — bytes that crossed a
	// topology cluster boundary. Zero when the run is unlabeled.
	InterRegionBytes int64
	InterRegionMsgs  int64
	QueueDelay       time.Duration // instantaneous uplink backlog at last send
	Crashed          bool
	CrashedAt        time.Duration
}

// Network is a simulated network of nodes. Build it and call Run from a
// single goroutine; Run fans work out to shard goroutines internally.
// Control operations (AddNode, Schedule, Crash, Freeze, SetUploadBps) and
// every read method are global-context operations: call them during setup,
// between Run calls, or from Schedule callbacks — never from handler code
// while a run window is executing.
type Network struct {
	cfg       Config
	latency   LatencyModel
	netem     netem.Model
	lookahead time.Duration

	now      time.Duration
	shards   []*shard
	active   []*shard // per-window scratch: shards with due work
	nodes    []simNode
	globals  []gevent // binary heap ordered by (at, gseq)
	gseq     uint64
	gstats   Stats // events dispatched in global context
	running  bool
	inWindow bool
}

// simNode is one dense node-table row. Rows are addressed by id and
// referenced only transiently (the table may be reallocated by mid-run
// joins, which happen at barriers).
type simNode struct {
	id      wire.NodeID
	shard   int32
	region  int32 // Config.RegionOf label; written at AddNode (global context), read-only after
	alive   bool
	started bool
	handler env.Handler
	rng     *rand.Rand // handler-visible protocol rng (env.Runtime's Rand)
	txRng   *rand.Rand // transmit-side rng: netem draws, one stream per sender
	seq     uint64     // per-node event sequence (timers and messages): the canonical tie-break
	sent    uint64     // messages that reached propagation: the latency jitter stamp
	cfg     NodeConfig

	frozenUntil  time.Duration
	uplinkFreeAt time.Duration
	crashedAt    time.Duration

	stats NodeStats
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(0)
	}
	if !(0 <= cfg.LossRate && cfg.LossRate < 1) {
		panic(fmt.Sprintf("simnet: loss rate %v outside [0,1)", cfg.LossRate))
	}
	if cfg.Netem == nil {
		cfg.Netem = netem.Bernoulli{P: cfg.LossRate}
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	lookahead := cfg.Latency.MinLatency()
	if lookahead <= 0 {
		shards = 1 // no lookahead, no safe parallel window
	}
	n := &Network{
		cfg:       cfg,
		latency:   cfg.Latency,
		netem:     cfg.Netem,
		lookahead: lookahead,
	}
	n.shards = make([]*shard, shards)
	for i := range n.shards {
		n.shards[i] = &shard{
			net:    n,
			idx:    int32(i),
			outbox: make([][]*event, shards),
		}
	}
	return n
}

// NumShards returns the effective shard count (after clamping).
func (n *Network) NumShards() int { return len(n.shards) }

// AddNode registers a node with the given handler and configuration and
// returns its id. The handler's Start runs at the current simulation time
// (time zero if the network has not run yet). AddNode may be called from
// scheduled callbacks to model joins. A network holds at most 1<<20 nodes;
// adding one more panics.
func (n *Network) AddNode(h env.Handler, cfg NodeConfig) wire.NodeID {
	n.assertGlobal("AddNode")
	if cfg.UploadBps < 0 {
		panic("simnet: negative upload capacity")
	}
	admitNode(len(n.nodes))
	id := wire.NodeID(len(n.nodes))
	seed := uint64(n.cfg.Seed)
	var region int32
	if n.cfg.RegionOf != nil {
		region = int32(n.cfg.RegionOf(id))
	}
	n.nodes = append(n.nodes, simNode{
		id:      id,
		shard:   int32(int(id) % len(n.shards)),
		region:  region,
		alive:   true,
		handler: h,
		rng:     rand.New(&splitmixSource{state: seed ^ (0x9e3779b97f4a7c15 * uint64(id+1))}),
		txRng:   rand.New(&splitmixSource{state: splitmix64(seed ^ (0xd1342543de82ef95 * uint64(id+1)))}),
		cfg:     cfg,
	})
	if p, ok := n.netem.(netem.Presizer); ok {
		// Presizing at the barrier keeps per-sender model state (GE chains)
		// growth out of the parallel windows.
		p.Presize(len(n.nodes))
	}
	n.pushGlobal(gevent{at: n.now, kind: gkindStart, node: id})
	return id
}

// admitNode panics when a network already holding count nodes is full: the
// next id would not fit the event key's tie-break field (see entKey).
func admitNode(count int) {
	if count >= maxNodes {
		panic(fmt.Sprintf("simnet: AddNode beyond the %d-node ceiling (event keys order node ids in %d bits)", maxNodes, nodeBits))
	}
}

// NumNodes returns the number of nodes ever added.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Now returns the current virtual time of the global context. Sequential
// runs (one shard) keep it exact per event; sharded runs advance it at
// barriers, which is everywhere global code can observe it. Handler code
// must use its Runtime's Now, which is always exact.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns a copy of the network-wide counters, summed across shards.
func (n *Network) Stats() Stats {
	out := n.gstats
	for _, sh := range n.shards {
		out.add(sh.stats)
	}
	return out
}

// NodeStats returns a copy of the counters for one node.
func (n *Network) NodeStats(id wire.NodeID) NodeStats {
	return n.node(id).stats
}

// Alive reports whether the node is currently up.
func (n *Network) Alive(id wire.NodeID) bool { return n.node(id).alive }

// Schedule runs fn at the given absolute virtual time (or immediately if at
// is in the past). fn runs in the global context — all shards parked at a
// barrier — and may call Crash, Freeze, AddNode, or node-level operations.
// Same-time callbacks run in call order, before any node event at that
// instant.
func (n *Network) Schedule(at time.Duration, fn func()) {
	n.assertGlobal("Schedule")
	if at < n.now {
		at = n.now
	}
	n.pushGlobal(gevent{at: at, kind: gkindFunc, fn: fn})
}

// Crash kills a node at the current time: its handler is stopped, pending
// timers are discarded, and datagrams still queued on its uplink (transmit
// finish after now) are lost — matching the paper's observation that a
// crash loses everything delivered to the node but not yet forwarded.
func (n *Network) Crash(id wire.NodeID) {
	n.assertGlobal("Crash")
	node := n.node(id)
	if !node.alive {
		return
	}
	node.alive = false
	node.crashedAt = n.now
	node.stats.Crashed = true
	node.stats.CrashedAt = n.now
	node.handler.Stop()
}

// Freeze suspends a node for d: deliveries and timers that would fire while
// frozen are deferred to the unfreeze instant. Models transiently overloaded
// PlanetLab hosts (§3.5).
func (n *Network) Freeze(id wire.NodeID, d time.Duration) {
	n.assertGlobal("Freeze")
	node := n.node(id)
	until := n.now + d
	if until > node.frozenUntil {
		node.frozenUntil = until
	}
}

// SetUploadBps rewrites a node's uplink capacity mid-run (netem capability
// traces, measured-capacity drift). The new rate applies to datagrams sent
// after the call; anything already serializing keeps its old schedule.
func (n *Network) SetUploadBps(id wire.NodeID, bps int64) {
	n.assertGlobal("SetUploadBps")
	if bps < 0 {
		panic("simnet: negative upload capacity")
	}
	n.node(id).cfg.UploadBps = bps
}

// UploadBps returns a node's current uplink capacity (0: unconstrained).
func (n *Network) UploadBps(id wire.NodeID) int64 { return n.node(id).cfg.UploadBps }

// QueueBacklog returns the current uplink backlog (time until the node's
// uplink drains) — the congestion signal the paper discusses in §3.6. Safe
// from the global context and from the node's own handler context (the
// adaptation layer samples its own backlog).
func (n *Network) QueueBacklog(id wire.NodeID) time.Duration {
	node := n.node(id)
	now := n.shards[node.shard].now
	if node.uplinkFreeAt <= now {
		return 0
	}
	return node.uplinkFreeAt - now
}

// QueueBacklogBytes returns the bytes currently waiting in the node's uplink
// queue (backlog time times the current capacity). Together with
// NodeStats.SentBytes — which counts at enqueue — this gives the bytes that
// actually left the node: SentBytes − QueueBacklogBytes, the achieved-
// throughput signal the adaptation layer samples. 0 for unconstrained
// uplinks, whose queue never forms.
//
// Caveat: datagrams already scheduled keep their old transmit times across
// SetUploadBps, so a rate rewrite revalues the standing backlog at the new
// rate and the gauge jumps discontinuously for the one observation window
// spanning the step. The adaptation controller bounds that window's
// influence on its own side (the per-decision Beta² guard in
// internal/adapt), which is cheaper than per-datagram byte accounting here.
func (n *Network) QueueBacklogBytes(id wire.NodeID) int64 {
	node := n.node(id)
	now := n.shards[node.shard].now
	if node.uplinkFreeAt <= now || node.cfg.UploadBps <= 0 {
		return 0
	}
	backlog := node.uplinkFreeAt - now
	return int64(backlog) * node.cfg.UploadBps / (8 * int64(time.Second))
}

func (n *Network) node(id wire.NodeID) *simNode {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: unknown node %d", id))
	}
	return &n.nodes[id]
}

// assertGlobal guards the global-context-only control operations against
// being called from handler code inside a run window, where they would race
// with other shards and break shard-count invariance.
func (n *Network) assertGlobal(op string) {
	if n.inWindow {
		panic("simnet: " + op + " called from node context during a run window; use a Schedule callback")
	}
}

// nodeRuntime adapts a simNode to env.Runtime. It holds the node id, not a
// row pointer: the dense node table may be reallocated by mid-run joins.
type nodeRuntime struct {
	net *Network
	id  wire.NodeID
}

var _ env.Runtime = (*nodeRuntime)(nil)

func (rt *nodeRuntime) ID() wire.NodeID { return rt.id }

// Now returns the node's shard-local virtual time: exact during windows,
// equal to the global clock at barriers.
func (rt *nodeRuntime) Now() time.Duration {
	return rt.net.shards[rt.net.nodes[rt.id].shard].now
}

func (rt *nodeRuntime) Rand() *rand.Rand { return rt.net.nodes[rt.id].rng }

func (rt *nodeRuntime) Send(to wire.NodeID, m wire.Message) {
	nd := &rt.net.nodes[rt.id]
	if !nd.alive {
		return
	}
	rt.net.send(nd, to, m)
}

// AfterFunc implements env.Runtime. The timer is just a pooled event on the
// owning node's shard: the call allocates nothing in steady state.
func (rt *nodeRuntime) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	nd := &rt.net.nodes[rt.id]
	sh := rt.net.shards[nd.shard]
	ev := sh.alloc()
	ev.at = sh.now + d
	ev.kind = evTimer
	ev.src = rt.id
	ev.srcSeq = nd.seq
	nd.seq++
	ev.fn = fn
	sh.push(ev)
}
