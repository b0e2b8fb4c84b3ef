package core

import (
	"fmt"

	"repro/internal/wire"
)

// This file holds the per-stream half of the engine split: everything keyed
// by packet id — the per-packet table (delivered, outstanding and buffered
// ids), the infect-and-die batch, the retransmission queue — lives in one
// streamState per dissemination stream, while the capability estimator, the
// peer sampler, the gossip/period tickers, and the fanout budget stay
// engine-global (one membership and aggregation layer shared by N streams).

// maxTrackedStreams bounds how many streams one engine will track. Streams
// are opened explicitly by configuration or lazily on first contact; the
// bound keeps hostile wire input from forcing unbounded per-stream state
// (mirroring maxTrackedPacketID for packet ids). Messages for streams past
// the bound are ignored.
const maxTrackedStreams = 64

// StreamConfig parameterizes one dissemination stream on an engine.
type StreamConfig struct {
	// ExpectedPackets presizes the stream's per-packet table (see
	// Config.ExpectedPackets). 0 means grow on demand.
	ExpectedPackets int
	// RateKbps is the stream's effective data rate (parity included) in
	// kilobits per second, the weight the fanout-budget allocator uses to
	// divide the node's upload capability across concurrent streams. 0 means
	// unknown: the stream is disseminated but does not participate in the
	// budget weighting.
	RateKbps float64
}

// streamState is the per-stream dissemination state: one instance per stream
// id, owned by the engine and touched only from the node's execution context.
type streamState struct {
	id       wire.StreamID
	rateKbps float64

	packets   packetTable     // per-id life cycle, dense by id (tables.go)
	toPropose []wire.PacketID // infect-and-die batch

	// Retransmission runs off one fire-and-forget timer per stream and a
	// FIFO deadline queue (retqueue.go): armRetransmit pushes, retFire
	// drains everything due and re-arms for the next head.
	ret       retQueue
	retArmed  bool   // a wakeup is pending
	retFireFn func() // cached retFire closure, allocated once per stream
	retFiring bool   // suppresses re-arming from inside retFire
}

// OpenStream registers a stream on the engine before traffic flows —
// sources open their stream with its rate; receivers in configured
// deployments open every stream so tables are presized and the budget
// allocator knows the full competing rate. Streams not opened explicitly are
// opened lazily (unsized, rate 0) on first contact. Opening an already-open
// stream is an error.
func (e *Engine) OpenStream(id wire.StreamID, sc StreamConfig) error {
	if e.lookupStream(id) != nil {
		return fmt.Errorf("core: stream %d already open", id)
	}
	if len(e.streams) >= maxTrackedStreams {
		return fmt.Errorf("core: stream limit %d reached", maxTrackedStreams)
	}
	if sc.RateKbps < 0 {
		return fmt.Errorf("core: stream %d rate %v must not be negative", id, sc.RateKbps)
	}
	e.addStream(id, sc)
	return nil
}

// addStream builds and registers a streamState.
func (e *Engine) addStream(id wire.StreamID, sc StreamConfig) *streamState {
	st := &streamState{id: id, rateKbps: sc.RateKbps}
	st.retFireFn = func() { e.retFire(st) }
	st.packets.presize(sc.ExpectedPackets)
	e.streams = append(e.streams, st)
	e.totalRateKbps += sc.RateKbps
	return st
}

// lookupStream finds an open stream. Stream counts are small (bounded by
// maxTrackedStreams, typically 1-4), so a linear scan beats a map and keeps
// the hot path allocation-free.
func (e *Engine) lookupStream(id wire.StreamID) *streamState {
	for _, st := range e.streams {
		if st.id == id {
			return st
		}
	}
	return nil
}

// streamFor returns the state for id, lazily opening it when create is set.
// Stream 0 — the legacy single stream — is presized from the engine-level
// ExpectedPackets; every lazily opened stream starts with unknown rate.
// Returns nil past the stream bound.
func (e *Engine) streamFor(id wire.StreamID, create bool) *streamState {
	if st := e.lookupStream(id); st != nil {
		return st
	}
	if !create || len(e.streams) >= maxTrackedStreams {
		return nil
	}
	sc := StreamConfig{}
	if id == 0 {
		sc.ExpectedPackets = e.cfg.ExpectedPackets
	}
	return e.addStream(id, sc)
}

// RetireStream removes a stream from the fanout-budget competition: its
// rate weight is released so the remaining streams reclaim the node's
// upload capability. The stream's dissemination state stays — stragglers
// are still proposed to, served from the buffer, and retransmitted — only
// its claim on future budget ends. Long-lived nodes that broadcast streams
// sequentially must retire each one when its production finishes, or every
// past stream keeps throttling all future ones (Node.OpenStream wires this
// to the source's completion automatically). Retiring an unknown or
// already-retired stream is a no-op.
func (e *Engine) RetireStream(id wire.StreamID) {
	st := e.lookupStream(id)
	if st == nil {
		return
	}
	e.totalRateKbps -= st.rateKbps
	st.rateKbps = 0
}

// budgetScale is the fanout-budget allocator: it returns the factor by which
// every stream's fanout is scaled so that the node's expected aggregate
// serve load stays within its upload capability.
//
// With HEAP's fanout f_i = fbar·b_i/bbar per stream, node i's expected
// upload for stream k is (f_i/fbar)·r_k, so the aggregate over streams is
// rel_i·Σr_k. When that exceeds the node's budget, every fanout is scaled by
// budget/(rel_i·Σr_k) — which is exactly the rate-weighted division of the
// node's capability across streams: stream k's upload share becomes
// budget·r_k/Σr, and reliability degrades uniformly instead of by
// whichever stream's queue happens to overflow first. The scaled fanouts are
// stochastically rounded per stream like any other fanout.
//
// The allocator only arbitrates *competition*: with a single stream (or no
// known budget or rates) the scale is 1 and the protocol is exactly the
// paper's — a lone overloaded stream behaves as the paper's CSR accounting
// describes, it is several broadcasters that must share the uplink fairly.
func (e *Engine) budgetScale() float64 {
	// effUploadKbps is the configured budget, lowered to the adaptation
	// controller's estimate while congestion persists (SetUploadBudget): a
	// node whose real capacity fell below its configured value rebalances
	// its streams off what it can actually push.
	if e.effUploadKbps == 0 || len(e.streams) < 2 || e.totalRateKbps <= 0 {
		return 1
	}
	rel := 1.0
	if e.cfg.Adaptive {
		if r := e.cfg.Capabilities.RelativeCapability(); r > 0 {
			rel = r
		}
	}
	predicted := rel * e.totalRateKbps
	budget := float64(e.effUploadKbps) * budgetHeadroom
	if predicted <= budget {
		return 1
	}
	return budget / predicted
}
