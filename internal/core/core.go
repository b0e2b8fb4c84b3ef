// Package core implements the paper's dissemination protocols: the standard
// three-phase gossip protocol (Algorithm 1) and HEAP, its
// heterogeneity-aware extension (Algorithm 2).
//
// # Three-phase gossip (Algorithm 1)
//
// Content spreads in a push-request-push pattern. Every gossip period a node
// sends the identifiers of the events it received during the last period
// ([Propose]) to f random peers, then forgets them (infect-and-die: each id
// is proposed exactly once per node). A peer receiving a proposal requests
// the ids it has not yet requested ([Request]); the proposer answers with
// the payloads ([Serve]). Requesting each id at most once keeps the average
// per-node upload at or below the stream rate.
//
// # HEAP (Algorithm 2)
//
// HEAP keeps the protocol identical but makes the fanout a per-node,
// per-round quantity:
//
//	f_i = fbar · b_i / bbar
//
// where bbar comes from the capability aggregation protocol
// (internal/aggregation). Since every proposal has roughly the same
// acceptance probability, a node's serve load is proportional to its fanout,
// so contribution tracks capability while the system-wide average fanout
// stays at the reliability threshold fbar = ln(n) + c.
//
// Retransmission (Algorithm 2, lines 6-10) re-requests ids whose [Serve] did
// not arrive within a timeout, falling back to alternate proposers. Per the
// paper's evaluation methodology (§3.1), retransmission is part of both
// protocols, so it lives here in the shared engine.
//
// # Multi-source streams
//
// One engine disseminates any number of concurrent streams over a single
// membership view and capability aggregation layer. Per-stream state (the
// per-packet table, the retransmit queue) lives in a streamState per stream
// id (streams.go); the estimator, sampler, tickers and period adaptation are
// engine-global. When several streams compete for the node's uplink, the
// fanout-budget allocator (budgetScale) divides the node's upload capability
// across them, weighted by stream rate, so aggregate sends never exceed
// Config.UploadKbps.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/wire"
)

// CapabilityEstimator supplies HEAP's relative capability b_i/bbar. The
// aggregation package's Estimator implements it.
type CapabilityEstimator interface {
	RelativeCapability() float64
}

// DeliverFunc is the application upcall for newly delivered events. Events
// are delivered exactly once per stream, in arrival (not publish) order; the
// event's Stream field identifies which stream it belongs to.
type DeliverFunc func(ev wire.Event, at time.Duration)

// Observer watches the engine at fixed points of its protocol paths — the
// one place a misbehavior detector (internal/misbehave), a hop tracer
// (internal/telemetry) or the congestion-adaptation loop (internal/stack)
// attaches. The engine calls every observer in Config.Observers order at each
// point: proposals seen and sent, requests seen and sent, serve payloads
// received, request timeouts attributed to the peer that failed to serve,
// once per gossip round (Tick), and along each packet's dissemination path
// (publish, first request, delivery). A peer is quarantined when any
// observer says so: its proposals are ignored and the retransmission
// rotation skips it; keeping it out of target draws is the sampler's job
// (a stack sets membership.Selector's Exclude to the detector's
// Quarantined). All methods run on the node's execution context;
// implementations must be deterministic and rng-free so observed runs keep
// every reproducibility guarantee, and an empty list leaves the engine
// byte-identical to one without observers. Embed NopObserver to
// implement only the methods an observer needs.
type Observer interface {
	// ObserveProposeSeen records a Propose carrying ids, received from a peer.
	ObserveProposeSeen(from wire.NodeID, ids int, at time.Duration)
	// ObserveProposeSent records ids proposed to a peer.
	ObserveProposeSent(to wire.NodeID, ids int, at time.Duration)
	// ObserveRequestSeen records a Request carrying ids, received from a peer.
	ObserveRequestSeen(from wire.NodeID, ids int, at time.Duration)
	// ObserveRequestSent records ids requested from a peer.
	ObserveRequestSent(to wire.NodeID, ids int, at time.Duration)
	// ObserveServeSeen records payloads served by a peer.
	ObserveServeSeen(from wire.NodeID, events int, bytes int64, at time.Duration)
	// ObserveTimeout records request timeouts attributed to a peer.
	ObserveTimeout(to wire.NodeID, ids int, at time.Duration)
	// Quarantined reports whether the peer is currently quarantined.
	Quarantined(id wire.NodeID) bool
	// Tick is called once per gossip round, before the round's fanout draws.
	Tick(now time.Duration)
	// TracePublish records a locally published packet — hop zero of its
	// dissemination path.
	TracePublish(stream wire.StreamID, id wire.PacketID, at time.Duration)
	// TraceRequest records the first request this node issued for a packet,
	// to the proposer it chose.
	TraceRequest(stream wire.StreamID, id wire.PacketID, from wire.NodeID, at time.Duration)
	// TraceDeliver records a packet delivered via a peer's Serve. Hop counts
	// are not carried on the wire (that would perturb the fingerprinted
	// encodings); they are joined offline from the per-node records, since
	// from names the peer whose own delivery precedes this one.
	TraceDeliver(stream wire.StreamID, id wire.PacketID, from wire.NodeID, at time.Duration)
}

// NopObserver implements every Observer method as a no-op that quarantines
// nobody. Embed it to observe only some points.
type NopObserver struct{}

func (NopObserver) ObserveProposeSeen(wire.NodeID, int, time.Duration)                    {}
func (NopObserver) ObserveProposeSent(wire.NodeID, int, time.Duration)                    {}
func (NopObserver) ObserveRequestSeen(wire.NodeID, int, time.Duration)                    {}
func (NopObserver) ObserveRequestSent(wire.NodeID, int, time.Duration)                    {}
func (NopObserver) ObserveServeSeen(wire.NodeID, int, int64, time.Duration)               {}
func (NopObserver) ObserveTimeout(wire.NodeID, int, time.Duration)                        {}
func (NopObserver) Quarantined(wire.NodeID) bool                                          { return false }
func (NopObserver) Tick(time.Duration)                                                    {}
func (NopObserver) TracePublish(wire.StreamID, wire.PacketID, time.Duration)              {}
func (NopObserver) TraceRequest(wire.StreamID, wire.PacketID, wire.NodeID, time.Duration) {}
func (NopObserver) TraceDeliver(wire.StreamID, wire.PacketID, wire.NodeID, time.Duration) {}

// maxFanout clamps the adapted fanout.
const maxFanout = 64

// serveBuffer is how long delivered events stay available for serving late
// requests.
const serveBuffer = 120 * time.Second

// budgetHeadroom is the fraction of Config.UploadKbps handed to serve
// traffic by the fanout-budget allocator; the remainder absorbs control
// traffic (proposes, requests, aggregation) and retransmission duplicates.
const budgetHeadroom = 0.8

// Config parameterizes a gossip engine.
type Config struct {
	// Fanout is fbar, the system-wide average fanout (ln(n)+c). In
	// standard mode every round uses exactly this value (stochastically
	// rounded if fractional); in adaptive mode it is scaled by the node's
	// relative capability.
	Fanout float64
	// FanoutFn, when non-nil, supplies fbar dynamically — e.g. ln(n̂)+c
	// from a continuous system-size estimator, removing the paper's
	// "n known in advance" simplification (§2.2). Non-positive returns
	// fall back to Fanout.
	FanoutFn func() float64
	// Adaptive enables HEAP's capability adaptation. Requires Capabilities.
	Adaptive bool
	// AdaptPeriod switches the adaptation knob from the fanout to the
	// gossip period (a §5 alternative): the fanout stays at Fanout while
	// the round period becomes GossipPeriod/(b_i/bbar), clamped to
	// [GossipPeriod/8, GossipPeriod*8]. Requires Adaptive.
	AdaptPeriod bool
	// Capabilities provides b_i/bbar for adaptive mode. Ignored otherwise.
	Capabilities CapabilityEstimator
	// GossipPeriod is the propose batching period. Default 200 ms (§3.1).
	GossipPeriod time.Duration
	// RetPeriod is the retransmission timeout: how long to wait for a
	// [Serve] before re-requesting. It must sit outside the tail of normal
	// congestion transients, not just outside the mean serve time: when the
	// timer fires on ordinary queueing delay, the duplicate serves it
	// triggers add load exactly where the system is already tight, a
	// positive feedback that collapses runs at CSR ~1.15 (measured: a 2 s
	// timeout turned a perfectly stable uniform-691 run into 48% duplicate
	// traffic and full collapse). Default 5 s.
	RetPeriod time.Duration
	// RetMaxAttempts bounds request attempts per id (first request
	// included). 0 disables retransmission; 1 means a single request and
	// no retries. Default 2 (one retry): retransmission exists to recover
	// rare datagram loss, and every additional attempt raises the
	// worst-case duplicate-traffic ceiling under congestion.
	RetMaxAttempts int
	// RetSameProposer re-requests timed-out ids from the original proposer
	// only (a literal reading of Algorithm 2, which re-injects the original
	// proposal on timeout). That policy lands every retransmission on
	// exactly the node that is already too congested to serve, amplifying
	// its load ~RetMaxAttempts-fold and collapsing both protocols under
	// tight capability supply; the default (false) therefore cycles retries
	// through alternate proposers of the same id — under HEAP those are
	// capability-weighted, since proposers appear in proportion to their
	// fanout. The same-proposer mode is kept as an ablation.
	RetSameProposer bool
	// ExpectedPackets presizes the per-packet table of stream 0 when that
	// stream is opened lazily, on first contact; it has no effect on a
	// stream 0 opened through OpenStream, whose StreamConfig sizes it.
	// Ids are dense per stream, so this is a slice length, not a hash-table
	// hint. 0 means grow on demand.
	ExpectedPackets int
	// UploadKbps is the node's upload capability in kilobits per second,
	// the budget the fanout allocator divides across concurrent streams
	// (see budgetScale in streams.go). 0 disables budgeting. With a single
	// stream the budget is inert: the allocator only arbitrates competition
	// between streams, never the paper's single-stream protocol.
	UploadKbps uint32
	// Sampler provides the gossip targets (Algorithm 1, selectNodes): flat
	// draws, or split draws under a hierarchical budget. A stack passes a
	// membership.Selector.
	Sampler membership.Sampler
	// FanoutIntra/FanoutInter split the gossip fanout budget by topology
	// locality: each round proposes to FanoutIntra peers of the node's own
	// cluster and FanoutInter peers across cluster boundaries
	// (Sampler.AppendSplit; a cluster View tells the sides apart), both
	// scaled by the same multipliers as the flat fanout (relative capability
	// under HEAP, the multi-stream budget allocator). Both zero (the
	// default) keeps the paper's flat fanout byte-identical — the split
	// draw is never consulted.
	FanoutIntra float64
	FanoutInter float64
	// OnDeliver, if non-nil, receives every newly delivered event.
	OnDeliver DeliverFunc
	// Observers watch the engine's protocol paths, in this order (see
	// Observer). Empty leaves every code path byte-identical to an engine
	// without observers.
	Observers []Observer
}

func (c *Config) applyDefaults() error {
	// Negated comparisons, so NaN fails them too.
	if !(c.Fanout > 0) {
		return fmt.Errorf("core: fanout %v must be positive", c.Fanout)
	}
	if c.Sampler == nil {
		return fmt.Errorf("core: sampler is required")
	}
	if !(c.FanoutIntra >= 0 && c.FanoutInter >= 0) {
		return fmt.Errorf("core: hierarchical fanout (%v intra, %v inter) must not be negative", c.FanoutIntra, c.FanoutInter)
	}
	if c.Adaptive && c.Capabilities == nil {
		return fmt.Errorf("core: adaptive mode requires a capability estimator")
	}
	if c.AdaptPeriod && !c.Adaptive {
		return fmt.Errorf("core: AdaptPeriod requires Adaptive")
	}
	if c.GossipPeriod == 0 {
		c.GossipPeriod = 200 * time.Millisecond
	}
	if c.RetPeriod == 0 {
		c.RetPeriod = 5 * time.Second
	}
	if c.RetMaxAttempts == 0 {
		c.RetMaxAttempts = 2
	}
	if c.RetMaxAttempts > math.MaxUint16 {
		return fmt.Errorf("core: RetMaxAttempts %d exceeds %d", c.RetMaxAttempts, math.MaxUint16)
	}
	return nil
}

// Stats counts protocol activity at one node, aggregated over all streams.
type Stats struct {
	ProposesSent     int64
	ProposesReceived int64
	RequestsSent     int64
	RequestsReceived int64
	ServesSent       int64
	EventsServed     int64
	EventsDelivered  int64
	DuplicateEvents  int64
	Retransmissions  int64 // re-sent requests (attempts beyond the first)
	GiveUps          int64 // ids abandoned after RetMaxAttempts
	UnservableIDs    int64 // requested ids we no longer buffer
	ProposesIgnored  int64 // proposals discarded because the proposer is quarantined
}

// maxProposersTracked bounds the alternate-proposer list per outstanding id.
const maxProposersTracked = 4

// maxTrackedPacketID bounds the dense per-packet table against hostile or
// corrupt wire input: ids are assigned densely in publish order, so a
// legitimate id beyond this (~20 h of continuous stream at the paper's
// geometry, 57 ids/s) does not occur in the runs this codebase makes, while
// an attacker-supplied huge id would otherwise force the dense arrays to
// allocate unboundedly. Ids past the bound are simply ignored.
const maxTrackedPacketID = 1 << 22

// Engine is one node's dissemination protocol instance: engine-global
// machinery (sampler, capability estimator, tickers, fanout budget) over one
// streamState per active stream. It implements env.Handler for
// Propose/Request/Serve messages. Not safe for concurrent use; all access
// happens on the node's execution context.
type Engine struct {
	cfg Config
	rt  env.Runtime

	// streams holds the per-stream dissemination state, in open order (the
	// deterministic gossip-round iteration order). totalRateKbps caches the
	// sum of the streams' rates for the budget allocator.
	streams       []*streamState
	totalRateKbps float64

	// retTargets/retGroups are retransmit's grouping scratch.
	retTargets []wire.NodeID
	retGroups  [][]wire.PacketID

	// One message and one slice per kind serve every send: Send keeps
	// nothing (env.Runtime.Send).
	propose   wire.Propose
	request   wire.Request
	serve     wire.Serve
	wanted    []wire.PacketID
	events    []wire.Event
	published [1]wire.PacketID // Publish's one-id batch

	// peerScratch is the per-round target buffer the samplers fill.
	peerScratch []wire.NodeID

	gossipTicker *env.Ticker
	adaptiveFn   func() // cached adaptiveRound closure (period-adaptation mode)
	pruneTicker  *env.Ticker
	serveBuffer  time.Duration // the serveBuffer constant; tests shorten it
	started      time.Duration // Start's time, from which prune ticks count
	prunePeriod  time.Duration // serveBuffer/4 + 1ns, the prune ticker's period
	pruneTick    int           // the next prune tick's number, mod pruneEpochs
	stopped      bool

	// effUploadKbps is the upload budget the allocator divides: the
	// configured UploadKbps, lowered through SetUploadBudget while
	// congestion persists.
	effUploadKbps uint32

	stats Stats
}

var _ env.Handler = (*Engine)(nil)

// New builds an Engine. It returns an error for invalid configurations.
// Streams are opened through OpenStream or lazily on first contact; the
// default stream 0 inherits ExpectedPackets when opened lazily.
func New(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, serveBuffer: serveBuffer, effUploadKbps: cfg.UploadKbps}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Stats returns a copy of the node's protocol counters.
func (e *Engine) Stats() Stats { return e.stats }

// Collect emits the engine's counters and live state as named samples — the
// registration surface for a telemetry registry (the engine itself stays
// registry-agnostic). Like Stats, it must run on the node's execution
// context (or after shutdown).
func (e *Engine) Collect(emit func(name string, value float64)) {
	st := e.stats
	emit("engine_proposes_sent_total", float64(st.ProposesSent))
	emit("engine_proposes_received_total", float64(st.ProposesReceived))
	emit("engine_proposes_ignored_total", float64(st.ProposesIgnored))
	emit("engine_requests_sent_total", float64(st.RequestsSent))
	emit("engine_requests_received_total", float64(st.RequestsReceived))
	emit("engine_serves_sent_total", float64(st.ServesSent))
	emit("engine_events_served_total", float64(st.EventsServed))
	emit("engine_events_delivered_total", float64(st.EventsDelivered))
	emit("engine_duplicate_events_total", float64(st.DuplicateEvents))
	emit("engine_retransmissions_total", float64(st.Retransmissions))
	emit("engine_giveups_total", float64(st.GiveUps))
	emit("engine_unservable_ids_total", float64(st.UnservableIDs))
	emit("engine_open_streams", float64(len(e.streams)))
	emit("engine_pending_requests", float64(e.PendingRequests()))
	emit("engine_buffered_events", float64(e.BufferedEvents()))
}

// Start implements env.Handler.
func (e *Engine) Start(rt env.Runtime) {
	e.rt = rt
	phase := time.Duration(rt.Rand().Int63n(int64(e.cfg.GossipPeriod)))
	if e.cfg.AdaptPeriod {
		e.adaptiveFn = e.adaptiveRound
		rt.AfterFunc(phase, e.adaptiveFn)
	} else {
		e.gossipTicker = env.NewTicker(rt, phase, e.cfg.GossipPeriod, e.gossipRound)
	}
	e.started, e.prunePeriod = rt.Now(), e.serveBuffer/4+1
	e.pruneTicker = env.NewTicker(rt, e.serveBuffer, e.prunePeriod, e.pruneBuffer)
}

// Stop implements env.Handler.
func (e *Engine) Stop() {
	e.stopped = true
	if e.gossipTicker != nil {
		e.gossipTicker.Stop()
	}
	if e.pruneTicker != nil {
		e.pruneTicker.Stop()
	}
}

// adaptiveRound runs one gossip round and reschedules itself with a period
// scaled inversely to the node's relative capability (period adaptation).
// The period is engine-global: all streams share one round schedule.
func (e *Engine) adaptiveRound() {
	if e.stopped {
		return
	}
	e.gossipRound()
	period := e.cfg.GossipPeriod
	if rel := e.cfg.Capabilities.RelativeCapability(); rel > 0 {
		scaled := time.Duration(float64(period) / rel)
		switch {
		case scaled < period/8:
			scaled = period / 8
		case scaled > period*8:
			scaled = period * 8
		}
		period = scaled
	}
	e.rt.AfterFunc(period, e.adaptiveFn)
}

// Publish injects a locally produced event (the broadcaster path of
// Algorithm 1: deliver locally, then gossip the id immediately, without
// waiting for the next period). The event's Stream field selects the
// stream; sources of additional streams open them first via OpenStream.
func (e *Engine) Publish(ev wire.Event) {
	st := e.streamFor(ev.Stream, true)
	if st == nil || st.packets.delivered(ev.ID) {
		return
	}
	e.deliverLocal(st, ev, false)
	for _, o := range e.cfg.Observers {
		o.TracePublish(st.id, ev.ID, e.rt.Now())
	}
	e.published[0] = ev.ID
	e.gossip(st, e.published[:])
}

// Receive implements env.Handler.
func (e *Engine) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.Propose:
		e.onPropose(from, msg)
	case *wire.Request:
		e.onRequest(from, msg)
	case *wire.Serve:
		e.onServe(from, msg)
	}
}

// gossipRound flushes every stream's infect-and-die batch (Algorithm 1,
// lines 6-7). Streams flush in open order — deterministic, and each with its
// own budget-scaled fanout draw. Observers tick first, so an adaptation
// observer's re-estimate takes effect in the very round that detected it.
func (e *Engine) gossipRound() {
	for _, o := range e.cfg.Observers {
		o.Tick(e.rt.Now())
	}
	for _, st := range e.streams {
		if len(st.toPropose) == 0 {
			continue
		}
		e.gossip(st, st.toPropose)
		st.toPropose = st.toPropose[:0]
	}
}

// gossip sends a [Propose] for ids to fanout() random peers — or, under a
// hierarchical budget, to splitFanout() peers drawn per locality.
func (e *Engine) gossip(st *streamState, ids []wire.PacketID) {
	if e.cfg.FanoutIntra+e.cfg.FanoutInter > 0 {
		fIntra, fInter := e.splitFanout()
		if fIntra+fInter <= 0 {
			return
		}
		e.peerScratch = e.cfg.Sampler.AppendSplit(e.peerScratch[:0], e.rt.Rand(), fIntra, fInter)
	} else if f := e.fanout(); f <= 0 {
		return
	} else {
		e.peerScratch = e.cfg.Sampler.AppendPeers(e.peerScratch[:0], e.rt.Rand(), f)
	}
	if len(e.peerScratch) == 0 {
		return
	}
	e.propose.Stream, e.propose.IDs = st.id, ids
	for _, p := range e.peerScratch {
		e.rt.Send(p, &e.propose)
		e.stats.ProposesSent++
		for _, o := range e.cfg.Observers {
			o.ObserveProposeSent(p, len(ids), e.rt.Now())
		}
	}
}

// SetUploadBudget sets the upload budget the fanout-budget allocator divides
// (see budgetScale), clamped to Config.UploadKbps: the budget never exceeds
// the configured physical capability, since an adaptation controller's
// ceiling is the *advertised* value, which freeriders and degraded nodes set
// apart from the real uplink. A no-op when UploadKbps is 0 (budgeting
// disabled).
func (e *Engine) SetUploadBudget(kbps uint32) {
	if e.cfg.UploadKbps > 0 {
		e.effUploadKbps = min(kbps, e.cfg.UploadKbps)
	}
}

// UploadBudget returns the upload budget the fanout-budget allocator
// divides: UploadKbps unless SetUploadBudget lowered it.
func (e *Engine) UploadBudget() uint32 { return e.effUploadKbps }

// fanout implements getFanout() of Algorithms 1 and 2: the configured fbar,
// scaled by relative capability in adaptive mode and by the multi-stream
// budget allocator, stochastically rounded so the expected value is
// preserved, clamped to [0 or 1, maxFanout].
func (e *Engine) fanout() int {
	f := e.cfg.Fanout
	if e.cfg.FanoutFn != nil {
		if v := e.cfg.FanoutFn(); v > 0 {
			f = v
		}
	}
	if e.cfg.Adaptive && !e.cfg.AdaptPeriod {
		f *= e.cfg.Capabilities.RelativeCapability()
	}
	f *= e.budgetScale()
	if f > maxFanout {
		f = maxFanout
	}
	floor := math.Floor(f)
	n := int(floor)
	if e.rt.Rand().Float64() < f-floor {
		n++
	}
	// Every node must keep gossiping to stay part of the dissemination
	// graph: clamp adapted fanouts below 1 up to 1 (the paper requires the
	// source to have fanout >= 1; we apply the same floor everywhere —
	// stochastic rounding already yields >=1 most rounds for any f >= 0.5).
	if n < 1 && f > 0 {
		n = 1
	}
	return n
}

// splitFanout is fanout() for hierarchical dissemination: each locality
// budget is scaled by the same multipliers as the flat fanout (relative
// capability in adaptive mode, the multi-stream budget allocator) and
// stochastically rounded on its own, so the expected intra/inter mix is
// preserved at every capability level. The pair is clamped so the total
// never exceeds maxFanout, and a node whose combined budget rounds to zero
// keeps one draw on its larger configured side — the same stay-in-the-graph
// floor fanout() applies.
func (e *Engine) splitFanout() (intra, inter int) {
	m := 1.0
	if e.cfg.Adaptive && !e.cfg.AdaptPeriod {
		m *= e.cfg.Capabilities.RelativeCapability()
	}
	m *= e.budgetScale()
	intra = e.stochRound(e.cfg.FanoutIntra * m)
	inter = e.stochRound(e.cfg.FanoutInter * m)
	if intra > maxFanout {
		intra = maxFanout
	}
	if intra+inter > maxFanout {
		inter = maxFanout - intra
	}
	if intra+inter < 1 && (e.cfg.FanoutIntra+e.cfg.FanoutInter)*m > 0 {
		if e.cfg.FanoutIntra >= e.cfg.FanoutInter {
			intra = 1
		} else {
			inter = 1
		}
	}
	return intra, inter
}

// stochRound rounds f to an integer whose expected value is f.
func (e *Engine) stochRound(f float64) int {
	floor := math.Floor(f)
	n := int(floor)
	if e.rt.Rand().Float64() < f-floor {
		n++
	}
	return n
}

// onPropose handles phase 2 (Algorithm 1, lines 8-13) plus retransmission
// bookkeeping: ids already outstanding gain an alternate proposer.
func (e *Engine) onPropose(from wire.NodeID, msg *wire.Propose) {
	e.stats.ProposesReceived++
	for _, o := range e.cfg.Observers {
		o.ObserveProposeSeen(from, len(msg.IDs), e.rt.Now())
	}
	if e.quarantined(from) {
		// A quarantined peer's proposals are not acted on: requesting from
		// it would hand it serve credit, and under HEAP a liar's inflated
		// fanout makes its proposals reach everywhere first.
		e.stats.ProposesIgnored++
		return
	}
	st := e.streamFor(msg.Stream, true)
	if st == nil {
		return // stream bound reached, see maxTrackedStreams
	}
	e.wanted = e.wanted[:0]
	for _, id := range msg.IDs {
		if id >= maxTrackedPacketID {
			continue // wire-robustness bound, see maxTrackedPacketID
		}
		switch s := st.packets.stateOf(id); {
		case s >= pktDelivered:
			continue
		case s == pktPending:
			// Already outstanding: remember the alternate proposer.
			if p := st.packets.rec(id); int(p.numProposers) < maxProposersTracked {
				seen := false
				for _, q := range p.proposers[:p.numProposers] {
					if q == from {
						seen = true
						break
					}
				}
				if !seen {
					p.proposers[p.numProposers] = from
					p.numProposers++
				}
			}
			continue
		}
		e.wanted = append(e.wanted, id)
		st.packets.set(id, pktPending)
		p := st.packets.rec(id)
		p.proposers[0] = from
		p.numProposers = 1
		p.attempts = 1
	}
	if len(e.wanted) == 0 {
		return
	}
	for _, o := range e.cfg.Observers {
		for _, id := range e.wanted {
			o.TraceRequest(st.id, id, from, e.rt.Now())
		}
	}
	e.sendRequest(st, from, e.wanted)
	e.armRetransmit(st, e.wanted)
}

// quarantined reports whether any observer quarantines the peer.
func (e *Engine) quarantined(id wire.NodeID) bool {
	for _, o := range e.cfg.Observers {
		if o.Quarantined(id) {
			return true
		}
	}
	return false
}

func (e *Engine) sendRequest(st *streamState, to wire.NodeID, ids []wire.PacketID) {
	e.request.Stream, e.request.IDs = st.id, ids
	e.rt.Send(to, &e.request)
	e.stats.RequestsSent++
	for _, o := range e.cfg.Observers {
		o.ObserveRequestSent(to, len(ids), e.rt.Now())
	}
}

// armRetransmit schedules a timeout for a batch of just-requested ids. On
// expiry, ids still undelivered are re-requested from alternate proposers
// (Algorithm 2 re-injects the proposal on RetTimer expiry). Batches share
// one timer per stream: RetPeriod is constant, so the deadline queue is FIFO
// and the timer only ever needs to cover its head. A push made outside
// retFire first pops the head batches already delivered (inside it,
// retransmit holds a view of the head).
func (e *Engine) armRetransmit(st *streamState, ids []wire.PacketID) {
	if e.cfg.RetMaxAttempts <= 1 || len(ids) == 0 {
		return
	}
	if !st.retFiring {
		st.ret.popDelivered(&st.packets)
	}
	st.ret.push(e.rt.Now()+e.cfg.RetPeriod, ids)
	if !st.retArmed && !st.retFiring {
		st.retArmed = true
		e.rt.AfterFunc(e.cfg.RetPeriod, st.retFireFn)
	}
}

// retFire drains every due retransmission batch of one stream, pops the
// head batches already delivered, and re-arms the stream's timer for the
// deadline of the head left (if any). A batch popped early changes nothing
// but the timer: retransmit would have found none of its ids pending.
func (e *Engine) retFire(st *streamState) {
	st.retArmed = false
	if e.stopped {
		return
	}
	st.retFiring = true
	now := e.rt.Now()
	for !st.ret.empty() && st.ret.headDue() <= now {
		// retransmit re-arms into the same queue, behind the batch it
		// reads, so the batch is released only once it returns.
		e.retransmit(st, st.ret.head())
		st.ret.pop()
	}
	st.retFiring = false
	st.ret.popDelivered(&st.packets)
	if !st.ret.empty() {
		st.retArmed = true
		e.rt.AfterFunc(st.ret.headDue()-now, st.retFireFn)
	}
}

// retransmit re-requests the still-missing ids of one due batch, read as
// the retransmission ring stores them (retQueue).
func (e *Engine) retransmit(st *streamState, ids []uint32) {
	// Group still-missing ids by the proposer to ask next. Grouping is
	// insertion-ordered (a linear scan over the few distinct targets, not a
	// map) so runs stay deterministic and the scratch slices are reusable.
	targets, groups := e.retTargets[:0], e.retGroups[:0]
	now := e.rt.Now()
	for _, id32 := range ids {
		id := wire.PacketID(id32)
		if st.packets.stateOf(id) != pktPending {
			continue // delivered (or already abandoned) meanwhile
		}
		p := st.packets.rec(id)
		if len(e.cfg.Observers) > 0 {
			// The id is still missing, so the peer last asked for it — the
			// original proposer for attempt 1, otherwise the rotation target
			// of the previous attempt — failed to serve within RetPeriod.
			// That timeout is the detector's negative serve evidence.
			prev := p.proposers[0]
			if !e.cfg.RetSameProposer && p.attempts > 1 {
				prev = p.proposers[int(p.attempts-1)%int(p.numProposers)]
			}
			for _, o := range e.cfg.Observers {
				o.ObserveTimeout(prev, 1, now)
			}
		}
		if int(p.attempts) >= e.cfg.RetMaxAttempts {
			// Abandon: clear the outstanding flag so a future propose can
			// trigger a fresh request (FEC may also mask the loss).
			st.packets.set(id, pktUnknown)
			e.stats.GiveUps++
			continue
		}
		target := p.proposers[0]
		if !e.cfg.RetSameProposer {
			target = p.proposers[int(p.attempts)%int(p.numProposers)]
			if e.quarantined(target) {
				// Skip quarantined alternates in the rotation; if every
				// proposer of the id is quarantined, keep the rotation
				// target — a doomed retry beats silently dropping the id.
				for off := int32(1); off < int32(p.numProposers); off++ {
					cand := p.proposers[(int(p.attempts)+int(off))%int(p.numProposers)]
					if !e.quarantined(cand) {
						target = cand
						break
					}
				}
			}
		}
		p.attempts++
		slot := -1
		for i, t := range targets {
			if t == target {
				slot = i
				break
			}
		}
		if slot < 0 {
			slot = len(targets)
			targets = append(targets, target)
			groups = slices.Grow(groups, 1)[:slot+1] // keeps past calls' slices
			groups[slot] = groups[slot][:0]
		}
		groups[slot] = append(groups[slot], id)
	}
	for i, target := range targets {
		e.sendRequest(st, target, groups[i])
		e.stats.Retransmissions++
		e.armRetransmit(st, groups[i])
	}
	e.retTargets, e.retGroups = targets[:0], groups[:0]
}

// onRequest handles phase 3, server side (Algorithm 1, lines 14-17).
func (e *Engine) onRequest(from wire.NodeID, msg *wire.Request) {
	e.stats.RequestsReceived++
	for _, o := range e.cfg.Observers {
		o.ObserveRequestSeen(from, len(msg.IDs), e.rt.Now())
	}
	st := e.lookupStream(msg.Stream)
	if st == nil {
		// Requests never open streams: nothing of this stream is buffered.
		e.stats.UnservableIDs += int64(len(msg.IDs))
		return
	}
	e.events = e.events[:0]
	for _, id := range msg.IDs {
		if st.packets.stateOf(id) >= pktBuffered {
			s := &st.packets.slots[id]
			payload := unsafe.Slice(unsafe.StringData(s.payload), len(s.payload))
			e.events = append(e.events, wire.Event{ID: id, Stream: st.id, Stamp: s.stamp, Payload: payload})
		} else {
			e.stats.UnservableIDs++
		}
	}
	if len(e.events) == 0 {
		return
	}
	e.serve.Stream, e.serve.Events = st.id, e.events
	e.rt.Send(from, &e.serve)
	e.stats.ServesSent++
	e.stats.EventsServed += int64(len(e.events))
}

// onServe handles phase 3, client side (Algorithm 1, lines 18-22).
func (e *Engine) onServe(from wire.NodeID, msg *wire.Serve) {
	if len(e.cfg.Observers) > 0 && len(msg.Events) > 0 {
		var bytes int64
		for i := range msg.Events {
			bytes += int64(len(msg.Events[i].Payload))
		}
		for _, o := range e.cfg.Observers {
			o.ObserveServeSeen(from, len(msg.Events), bytes, e.rt.Now())
		}
	}
	st := e.streamFor(msg.Stream, true)
	if st == nil {
		return // stream bound reached, see maxTrackedStreams
	}
	for _, ev := range msg.Events {
		if ev.ID >= maxTrackedPacketID {
			continue // wire-robustness bound, see maxTrackedPacketID
		}
		if st.packets.delivered(ev.ID) {
			e.stats.DuplicateEvents++
			continue
		}
		for _, o := range e.cfg.Observers {
			o.TraceDeliver(st.id, ev.ID, from, e.rt.Now())
		}
		e.deliverLocal(st, ev, true)
	}
}

// deliverLocal marks ev delivered, buffers it for serving, and fires the
// application upcall. With propose set, the id joins the next infect-and-die
// batch (Publish gossips immediately instead).
func (e *Engine) deliverLocal(st *streamState, ev wire.Event, propose bool) {
	ev.Stream = st.id // normalize: the stream state is authoritative
	now := e.rt.Now()
	slot := st.packets.set(ev.ID, bufferedState(e.pruneEpoch(now)))
	slot.stamp = ev.Stamp
	slot.payload = unsafe.String(unsafe.SliceData(ev.Payload), len(ev.Payload))
	if propose {
		st.toPropose = append(st.toPropose, ev.ID)
	}
	e.stats.EventsDelivered++
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(ev, now)
	}
}

// pruneEpoch is the number of the prune tick that releases an id received
// at now. Tick j is due at start+serveBuffer+j·P, P being prunePeriod, and
// on schedule it releases what the age rule "received before
// now−serveBuffer" would: the ids received before start+j·P, so an id
// received at r goes at tick ⌊(r−start)/P⌋+1. That is at most five ticks
// past the next one due at r; only a ticker running more than pruneEpochs/2
// ticks behind schedule (an hour at the 120 s buffer) could release an id
// early.
func (e *Engine) pruneEpoch(now time.Duration) int {
	return int((now-e.started)/e.prunePeriod) + 1
}

// pruneBuffer drops served payloads that have been buffered for
// serveBuffer (bounds memory; late requests for pruned ids count as
// UnservableIDs): tick j releases every buffered id of epoch j or less. A
// tick that fires late releases no more than on schedule; the ids received
// between its scheduled and actual cutoffs wait for the next tick, at most
// serveBuffer/4 later.
func (e *Engine) pruneBuffer() {
	for _, st := range e.streams {
		st.packets.prune(e.pruneTick)
	}
	e.pruneTick = (e.pruneTick + 1) % pruneEpochs
}

// PendingRequests returns the number of outstanding requested ids across all
// streams.
func (e *Engine) PendingRequests() int {
	n := 0
	for _, st := range e.streams {
		n += st.packets.pending
	}
	return n
}

// BufferedEvents returns the number of payloads currently buffered across
// all streams.
func (e *Engine) BufferedEvents() int {
	n := 0
	for _, st := range e.streams {
		n += st.packets.buffered
	}
	return n
}
