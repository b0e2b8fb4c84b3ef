// Package misbehave implements adversarial node classes and a deterministic
// misbehavior detector for the gossip protocols of this repository.
//
// The paper's §5 discussion names freeriding as HEAP's open threat and
// sketches — but never builds — a detection mechanism. This package builds
// one, for three adversary classes:
//
//   - Freeriders consume the stream but under-contribute relative to the
//     capability they advertise: they accept payloads and keep proposing
//     (so they stay attractive gossip partners) while ignoring the Request
//     messages that would make them serve ([Interceptor] dropping inbound
//     requests).
//   - Capability liars over-advertise to the aggregation protocol. Under
//     HEAP an inflated claim buys an inflated fanout — the liar's proposals
//     flood the system and attract serve load its real uplink cannot carry —
//     and simultaneously inflates everyone's bbar estimate, shrinking honest
//     fanouts. Lying happens at the aggregation layer (the scenario wires
//     it), so there is no liar interceptor here.
//   - Message droppers swallow inbound Propose messages: they never pull,
//     never relay, and turn every fanout slot spent on them into dead air.
//
// # The detector
//
// [Detector] is a per-node, deterministic, rng-free state machine. As a
// [core.Observer] of the engine it is fed the per-peer contribution evidence
// the engine already sees on its hot paths: proposals seen and sent, requests
// seen and sent, serve payloads received, and request timeouts attributed to
// the peer that failed to serve. Achieved serve throughput per peer is
// tracked with the same sample-and-delta plumbing as internal/adapt
// ([adapt.Sample] snapshots of cumulative served bytes). Two rules produce
// verdicts, each with a release path so transient congestion cannot latch a
// false verdict:
//
//   - Serve deficit: once served+timeouts evidence reaches MinServeEvidence,
//     a peer whose served/(served+timeouts) ratio sits below ServeRatioFloor
//     is quarantined. An honest-but-degraded peer serves late — every timed
//     out id still lands, holding its ratio near 0.5 — while a freerider
//     never serves and a saturated liar leaves a growing tail of requests
//     unserved forever. Released when the ratio recovers above ReleaseRatio
//     with fresh serves as evidence.
//   - Unresponsiveness: a peer that was offered MinProposedIDs ids yet never
//     requested anything and never proposed anything is a dropper. The
//     broadcaster is naturally exempt (it proposes constantly); any request
//     or proposal from the peer releases the verdict.
//
// Quarantine responses are wired through target selection (a stack sets
// membership.Selector's Exclude to [Detector.Quarantined], keeping
// quarantined peers out of every draw), the engine (proposals
// from quarantined peers are ignored, retry rotation skips them), and the
// capability-weighted fanout budget (aggregation.Config.Exclude expels a
// quarantined peer's claim from bbar — the fanout penalty that hands the
// liar's stolen fanout share back to honest nodes).
//
// Everything here runs in the node's execution context, consumes no
// randomness, and never reads wall clocks: armed runs remain byte-identical
// across repeats, the property the determinism suite pins down.
package misbehave

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/wire"
)

// Config parameterizes a Detector. The zero value of every threshold selects
// the documented default; the zero value of Armed selects an observe-only
// detector that accumulates evidence (first receipts, per-peer counters,
// achieved-throughput windows) but never issues verdicts — the detector-off
// arm of A/B studies, byte-identical in protocol behavior to no detector.
type Config struct {
	// Armed enables verdicts (quarantine and release). Unarmed detectors
	// only collect evidence.
	Armed bool
	// EvalInterval is how often Tick evaluates verdicts and rolls the
	// achieved-throughput window. Ticks arrive every gossip round; the
	// detector quantizes them. Default 1 s.
	EvalInterval time.Duration
	// MinServeEvidence is the served+timeouts count below which the
	// serve-deficit rule abstains. Per-peer evidence is sparse (a few
	// requests per pair per run at paper scale), so this is deliberately
	// small; the quarantine quorum across detectors supplies the
	// statistical power. Default 5.
	MinServeEvidence int64
	// ServeRatioFloor quarantines a peer whose served/(served+timeouts)
	// falls below it. Must stay below 0.5: an honest peer that serves every
	// request late (one timeout then one serve per id) sits at 0.5 exactly.
	// Default 0.35.
	ServeRatioFloor float64
	// ReleaseRatio releases a serve-deficit quarantine once the ratio
	// recovers above it with at least one fresh serve since the verdict.
	// Must exceed ServeRatioFloor (hysteresis). Default 0.5.
	ReleaseRatio float64
	// MinProposedIDs is how many ids we must have proposed to a peer before
	// total silence (no requests, no proposals from it) reads as dropping
	// rather than sampling noise. Default 15.
	MinProposedIDs int64
	// Alive, when non-nil, exempts dead peers from verdicts: a crashed node
	// is silent for honest reasons. Simulation scenarios wire the
	// simulator's liveness oracle; live deployments leave it nil (falsely
	// quarantining a dead peer is harmless).
	Alive func(wire.NodeID) bool
}

// withDefaults returns a copy with every zero threshold filled in.
func (c Config) withDefaults() Config {
	if c.EvalInterval == 0 {
		c.EvalInterval = time.Second
	}
	if c.MinServeEvidence == 0 {
		c.MinServeEvidence = 5
	}
	if c.ServeRatioFloor == 0 {
		c.ServeRatioFloor = 0.35
	}
	if c.ReleaseRatio == 0 {
		c.ReleaseRatio = 0.5
	}
	if c.MinProposedIDs == 0 {
		c.MinProposedIDs = 15
	}
	return c
}

// Validate checks the configuration after applying defaults (a zero Config
// is always valid).
func (c *Config) Validate() error {
	d := c.withDefaults()
	if d.EvalInterval <= 0 {
		return fmt.Errorf("misbehave: eval interval %v must be positive", d.EvalInterval)
	}
	if d.MinServeEvidence < 1 {
		return fmt.Errorf("misbehave: min serve evidence %d must be at least 1", d.MinServeEvidence)
	}
	if !(0 < d.ServeRatioFloor && d.ServeRatioFloor < 1) {
		return fmt.Errorf("misbehave: serve ratio floor %v outside (0, 1)", d.ServeRatioFloor)
	}
	if !(d.ServeRatioFloor < d.ReleaseRatio && d.ReleaseRatio <= 1) {
		return fmt.Errorf("misbehave: release ratio %v must sit in (%v, 1]",
			d.ReleaseRatio, d.ServeRatioFloor)
	}
	if d.MinProposedIDs < 1 {
		return fmt.Errorf("misbehave: min proposed ids %d must be at least 1", d.MinProposedIDs)
	}
	return nil
}

// Evidence is the monotone per-peer contribution record. Every counter only
// ever grows; derived quantities (ratios, windows) are computed from it, so
// arbitrary observation interleavings keep the record consistent.
type Evidence struct {
	// ProposesSeen counts Propose messages received from the peer.
	ProposesSeen int64
	// ProposedIDs counts ids this node proposed to the peer.
	ProposedIDs int64
	// RequestsSeen counts Request messages received from the peer.
	RequestsSeen int64
	// RequestedIDs counts ids this node requested from the peer.
	RequestedIDs int64
	// ServedEvents counts payload events the peer served us.
	ServedEvents int64
	// ServedBytes counts payload bytes the peer served us.
	ServedBytes int64
	// Timeouts counts request timeouts attributed to the peer: it was asked
	// and the serve did not arrive within the retransmission period.
	Timeouts int64
}

// serveRatio returns served/(served+timeouts) and whether enough evidence
// exists to evaluate it against min.
func (e *Evidence) serveRatio(min int64) (float64, bool) {
	total := e.ServedEvents + e.Timeouts
	if total < min || total == 0 {
		return 0, false
	}
	return float64(e.ServedEvents) / float64(total), true
}

// Reason labels why a peer was quarantined.
type Reason uint8

// Quarantine reasons.
const (
	ReasonNone         Reason = iota
	ReasonServeDeficit        // low served/(served+timeouts): freerider or saturated liar
	ReasonUnresponsive        // proposed-to but never requests or proposes: dropper
	ReasonManual              // operator/test decision via Quarantine
)

// String returns the reason's report label.
func (r Reason) String() string {
	switch r {
	case ReasonServeDeficit:
		return "serve-deficit"
	case ReasonUnresponsive:
		return "unresponsive"
	case ReasonManual:
		return "manual"
	default:
		return "none"
	}
}

// EventKind distinguishes quarantine from release entries in the event log.
type EventKind uint8

// Event kinds.
const (
	EventQuarantine EventKind = iota + 1
	EventRelease
)

// Event is one verdict change, for traces and detection-latency accounting.
type Event struct {
	Kind   EventKind
	Peer   wire.NodeID
	Reason Reason
	At     time.Duration
}

// maxEventEntries bounds the retained event log (the true totals survive in
// QuarantineEvents/ReleaseEvents and the per-peer first-quarantine stamps).
// When full, the oldest half is dropped, mirroring adapt's trace bound.
const maxEventEntries = 4096

// maxTrackedPeerID bounds the dense per-peer table against hostile input:
// node ids are dense, so a million-node ceiling is far beyond any deployment
// while capping what wire input can make us allocate (the same guard as
// aggregation's entry table).
const maxTrackedPeerID = 1 << 20

// peerState is one peer's detector-side record.
type peerState struct {
	tracked bool
	ev      Evidence

	quarantined   bool
	reason        Reason
	quarantinedAt time.Duration
	// servedAtQuarantine snapshots ServedEvents at the verdict, so release
	// demands fresh exonerating serves, not a stale ratio.
	servedAtQuarantine int64
	// everQuarantined/firstQuarantinedAt survive event-log trimming; the
	// scenario layer computes detection latency from them.
	everQuarantined    bool
	firstQuarantinedAt time.Duration

	// Achieved serve throughput from this peer, computed with the adapt
	// package's sample-and-delta plumbing: window holds the previous
	// snapshot (At, SentBytes=cumulative ServedBytes).
	window       adapt.Sample
	windowPrimed bool
	achievedKbps float64
	peakKbps     float64
}

// Detector is one node's misbehavior detector. Not safe for concurrent use;
// all access happens on the node's execution context, like every protocol
// handler. It is a core.Observer of the engine's evidence hooks, Quarantined
// and Tick.
type Detector struct {
	core.NopObserver // the trace hooks

	cfg   Config
	peers []peerState // dense by node id

	lastEval  time.Duration
	evalReady bool

	events      []Event
	quarCount   int
	quarEvents  int64
	relEvents   int64
	firstFrom   wire.NodeID
	firstAt     time.Duration
	firstSeen   bool
	totalTicks  int64
	totalEvents int64 // observations, for diagnostics
}

// New builds a Detector. It returns an error for invalid configurations.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg.withDefaults(), firstFrom: wire.NodeNone}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Detector {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Armed reports whether the detector issues verdicts.
func (d *Detector) Armed() bool { return d.cfg.Armed }

// peer returns the state slot for id, growing the dense table on demand.
// Returns nil for out-of-range ids (negative or beyond the hostile-input
// bound).
func (d *Detector) peer(id wire.NodeID) *peerState {
	if id < 0 || id >= maxTrackedPeerID {
		return nil
	}
	for int(id) >= len(d.peers) {
		d.peers = append(d.peers, peerState{})
	}
	p := &d.peers[id]
	p.tracked = true
	return p
}

// ObserveProposeSeen records a Propose message from the peer. The first
// observation also pins the node's first-receipt record (the source-anonymity
// probe's raw material).
func (d *Detector) ObserveProposeSeen(from wire.NodeID, ids int, at time.Duration) {
	if ids <= 0 {
		return
	}
	p := d.peer(from)
	if p == nil {
		return
	}
	if !d.firstSeen {
		d.firstSeen = true
		d.firstFrom = from
		d.firstAt = at
	}
	p.ev.ProposesSeen++
	d.totalEvents++
}

// ObserveProposeSent records ids proposed to the peer.
func (d *Detector) ObserveProposeSent(to wire.NodeID, ids int, at time.Duration) {
	if ids <= 0 {
		return
	}
	if p := d.peer(to); p != nil {
		p.ev.ProposedIDs += int64(ids)
		d.totalEvents++
	}
}

// ObserveRequestSeen records a Request message from the peer.
func (d *Detector) ObserveRequestSeen(from wire.NodeID, ids int, at time.Duration) {
	if ids <= 0 {
		return
	}
	if p := d.peer(from); p != nil {
		p.ev.RequestsSeen++
		d.totalEvents++
	}
}

// ObserveRequestSent records ids requested from the peer.
func (d *Detector) ObserveRequestSent(to wire.NodeID, ids int, at time.Duration) {
	if ids <= 0 {
		return
	}
	if p := d.peer(to); p != nil {
		p.ev.RequestedIDs += int64(ids)
		d.totalEvents++
	}
}

// ObserveServeSeen records payloads served by the peer.
func (d *Detector) ObserveServeSeen(from wire.NodeID, events int, bytes int64, at time.Duration) {
	if events <= 0 {
		return
	}
	if p := d.peer(from); p != nil {
		p.ev.ServedEvents += int64(events)
		if bytes > 0 {
			p.ev.ServedBytes += bytes
		}
		d.totalEvents++
	}
}

// ObserveTimeout records request timeouts attributed to the peer.
func (d *Detector) ObserveTimeout(to wire.NodeID, ids int, at time.Duration) {
	if ids <= 0 {
		return
	}
	if p := d.peer(to); p != nil {
		p.ev.Timeouts += int64(ids)
		d.totalEvents++
	}
}

// Tick drives evaluation. The engine calls it every gossip round; the
// detector quantizes to EvalInterval. Each evaluation rolls every tracked
// peer's achieved-throughput window and, when armed, applies the verdict
// rules in ascending peer order (a strict total order, so runs are
// reproducible).
func (d *Detector) Tick(now time.Duration) {
	if d.evalReady && now-d.lastEval < d.cfg.EvalInterval {
		return
	}
	d.evalReady = true
	d.lastEval = now
	d.totalTicks++
	for id := range d.peers {
		p := &d.peers[id]
		if !p.tracked {
			continue
		}
		d.rollWindow(p, now)
		if d.cfg.Armed {
			d.evaluate(wire.NodeID(id), p, now)
		}
	}
}

// rollWindow updates the peer's achieved serve throughput using adapt's
// delta arithmetic over cumulative byte counters.
func (d *Detector) rollWindow(p *peerState, now time.Duration) {
	sample := adapt.Sample{At: now, SentBytes: p.ev.ServedBytes}
	if p.windowPrimed {
		if dt := sample.At - p.window.At; dt > 0 {
			delta := sample.SentBytes - p.window.SentBytes
			p.achievedKbps = float64(delta) * 8 / dt.Seconds() / 1000
			if p.achievedKbps > p.peakKbps {
				p.peakKbps = p.achievedKbps
			}
		}
	}
	p.windowPrimed = true
	p.window = sample
}

// evaluate applies the verdict rules to one peer.
func (d *Detector) evaluate(id wire.NodeID, p *peerState, now time.Duration) {
	if d.cfg.Alive != nil && !d.cfg.Alive(id) {
		return // dead peers are silent for honest reasons
	}
	if p.quarantined {
		switch p.reason {
		case ReasonServeDeficit:
			ratio, ok := p.ev.serveRatio(d.cfg.MinServeEvidence)
			if ok && ratio >= d.cfg.ReleaseRatio && p.ev.ServedEvents > p.servedAtQuarantine {
				d.release(id, p, now)
			}
		case ReasonUnresponsive:
			if p.ev.RequestsSeen > 0 || p.ev.ProposesSeen > 0 {
				d.release(id, p, now)
			}
		}
		return
	}
	if ratio, ok := p.ev.serveRatio(d.cfg.MinServeEvidence); ok && ratio < d.cfg.ServeRatioFloor {
		d.quarantine(id, p, ReasonServeDeficit, now)
		return
	}
	if p.ev.ProposedIDs >= d.cfg.MinProposedIDs && p.ev.RequestsSeen == 0 && p.ev.ProposesSeen == 0 {
		d.quarantine(id, p, ReasonUnresponsive, now)
	}
}

func (d *Detector) quarantine(id wire.NodeID, p *peerState, reason Reason, now time.Duration) {
	p.quarantined = true
	p.reason = reason
	p.quarantinedAt = now
	p.servedAtQuarantine = p.ev.ServedEvents
	if !p.everQuarantined {
		p.everQuarantined = true
		p.firstQuarantinedAt = now
	}
	d.quarCount++
	d.quarEvents++
	d.appendEvent(Event{Kind: EventQuarantine, Peer: id, Reason: reason, At: now})
}

func (d *Detector) release(id wire.NodeID, p *peerState, now time.Duration) {
	reason := p.reason
	p.quarantined = false
	p.reason = ReasonNone
	d.quarCount--
	d.relEvents++
	d.appendEvent(Event{Kind: EventRelease, Peer: id, Reason: reason, At: now})
}

func (d *Detector) appendEvent(ev Event) {
	if len(d.events) >= maxEventEntries {
		n := copy(d.events, d.events[len(d.events)-maxEventEntries/2:])
		d.events = d.events[:n]
	}
	d.events = append(d.events, ev)
}

// Quarantine imposes a manual verdict (operator or test decision).
// Quarantining an already-quarantined peer is a no-op.
func (d *Detector) Quarantine(id wire.NodeID, now time.Duration) {
	p := d.peer(id)
	if p == nil || p.quarantined {
		return
	}
	d.quarantine(id, p, ReasonManual, now)
}

// Release lifts a quarantine regardless of reason. Releasing a peer that is
// not quarantined is a no-op.
func (d *Detector) Release(id wire.NodeID, now time.Duration) {
	if id < 0 || int(id) >= len(d.peers) {
		return
	}
	p := &d.peers[id]
	if !p.quarantined {
		return
	}
	d.release(id, p, now)
}

// Quarantined reports whether the peer is currently quarantined. This is the
// engine's hot-path query; out-of-range ids are never quarantined.
func (d *Detector) Quarantined(id wire.NodeID) bool {
	if id < 0 || int(id) >= len(d.peers) {
		return false
	}
	return d.peers[id].quarantined
}

// QuarantineCount returns how many peers are currently quarantined.
func (d *Detector) QuarantineCount() int { return d.quarCount }

// QuarantineEvents returns the total number of quarantine verdicts issued
// (the true total, even past the event-log bound).
func (d *Detector) QuarantineEvents() int64 { return d.quarEvents }

// ReleaseEvents returns the total number of releases issued.
func (d *Detector) ReleaseEvents() int64 { return d.relEvents }

// Events returns the verdict log, bounded to the most recent maxEventEntries
// changes. The returned slice is owned by the detector.
func (d *Detector) Events() []Event { return d.events }

// QuarantinedPeers returns the currently quarantined peers in ascending id
// order.
func (d *Detector) QuarantinedPeers() []wire.NodeID {
	out := make([]wire.NodeID, 0, d.quarCount)
	for id := range d.peers {
		if d.peers[id].quarantined {
			out = append(out, wire.NodeID(id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvidenceOf returns the peer's evidence record and whether the peer has
// ever been observed.
func (d *Detector) EvidenceOf(id wire.NodeID) (Evidence, bool) {
	if id < 0 || int(id) >= len(d.peers) || !d.peers[id].tracked {
		return Evidence{}, false
	}
	return d.peers[id].ev, true
}

// AchievedKbps returns the peer's serve throughput toward this node over the
// last evaluation window, and its peak over the run (0, 0 for unknown peers).
func (d *Detector) AchievedKbps(id wire.NodeID) (last, peak float64) {
	if id < 0 || int(id) >= len(d.peers) {
		return 0, 0
	}
	return d.peers[id].achievedKbps, d.peers[id].peakKbps
}

// FirstQuarantinedAt returns when the peer was first quarantined, if ever.
// The stamp survives releases and event-log trimming (detection-latency
// accounting).
func (d *Detector) FirstQuarantinedAt(id wire.NodeID) (time.Duration, bool) {
	if id < 0 || int(id) >= len(d.peers) || !d.peers[id].everQuarantined {
		return 0, false
	}
	return d.peers[id].firstQuarantinedAt, true
}

// FirstReceipt returns the first Propose this node ever received: the peer
// it came from and when. The observer-coalition source-anonymity probe ranks
// broadcaster candidates by exactly this order.
func (d *Detector) FirstReceipt() (from wire.NodeID, at time.Duration, ok bool) {
	return d.firstFrom, d.firstAt, d.firstSeen
}

// TrackedPeers returns how many distinct peers have evidence records.
func (d *Detector) TrackedPeers() int {
	n := 0
	for i := range d.peers {
		if d.peers[i].tracked {
			n++
		}
	}
	return n
}

// Collect emits the detector's state as named samples — the registration
// surface for a telemetry registry. Must run on the node's execution
// context (or after shutdown), like the other accessors.
func (d *Detector) Collect(emit func(name string, value float64)) {
	armed := 0.0
	if d.cfg.Armed {
		armed = 1
	}
	emit("misbehave_armed", armed)
	emit("misbehave_quarantined_peers", float64(d.QuarantineCount()))
	emit("misbehave_quarantine_events_total", float64(d.quarEvents))
	emit("misbehave_release_events_total", float64(d.relEvents))
	emit("misbehave_tracked_peers", float64(d.TrackedPeers()))
}
