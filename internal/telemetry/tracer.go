package telemetry

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TraceConfig parameterizes a dissemination tracer.
type TraceConfig struct {
	// SampleEvery samples packet ids where id % SampleEvery == 0 — a
	// deterministic, rng-free rule, so every node of a run traces the same
	// id population and offline hop joins see complete paths. Default 1
	// (trace everything); <= 0 is normalized to 1.
	SampleEvery int
	// RingCap bounds how many hop records the tracer retains; once full the
	// ring overwrites its oldest records (Truncated counts the loss).
	// Default 4096.
	RingCap int
}

func (c *TraceConfig) normalize() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
}

// HopRecord is one traced dissemination step observed at one node: a source
// publish (hop zero of a path) or a delivery via the propose→request→serve
// path. Times are durations since the run epoch (the simulator's virtual
// clock, so records are fingerprint-deterministic).
type HopRecord struct {
	// Node observed the step.
	Node wire.NodeID
	// From is the serving peer (the node itself for a publish).
	From wire.NodeID
	// Stream and ID identify the packet.
	Stream wire.StreamID
	ID     wire.PacketID
	// At is when the packet was delivered locally.
	At time.Duration
	// ReqAt is when this node first requested the packet (equal to At for a
	// publish; -1 when the request predates the tracer's bounded state).
	ReqAt time.Duration
	// Publish marks a source-publish record.
	Publish bool
}

// Tracer records sampled dissemination steps for one node. It is a
// core.Observer of the engine's trace hooks; like every observer it runs on
// the node's execution context and needs no locking. All state is bounded: a
// ring of records plus a pending-request map capped relative to the ring.
type Tracer struct {
	core.NopObserver // the evidence hooks, Quarantined and Tick

	cfg   TraceConfig
	self  wire.NodeID
	reqAt map[reqKey]time.Duration

	ring      []HopRecord
	next      int // ring write index once len(ring) == cap
	truncated int // records overwritten by ring wrap
}

type reqKey struct {
	stream wire.StreamID
	id     wire.PacketID
}

// NewTracer builds a tracer for the given node id.
func NewTracer(self wire.NodeID, cfg TraceConfig) *Tracer {
	cfg.normalize()
	return &Tracer{
		cfg:   cfg,
		self:  self,
		reqAt: make(map[reqKey]time.Duration),
		ring:  make([]HopRecord, 0, cfg.RingCap),
	}
}

func (t *Tracer) sampled(id wire.PacketID) bool {
	return t.cfg.SampleEvery == 1 || id%wire.PacketID(t.cfg.SampleEvery) == 0
}

// TracePublish records a source publish (hop zero).
func (t *Tracer) TracePublish(stream wire.StreamID, id wire.PacketID, at time.Duration) {
	if !t.sampled(id) {
		return
	}
	t.push(HopRecord{Node: t.self, From: t.self, Stream: stream, ID: id,
		At: at, ReqAt: at, Publish: true})
}

// TraceRequest records the first request this node sent for a packet.
func (t *Tracer) TraceRequest(stream wire.StreamID, id wire.PacketID, _ wire.NodeID, at time.Duration) {
	if !t.sampled(id) {
		return
	}
	if len(t.reqAt) >= 4*t.cfg.RingCap {
		return // bounded state: the record's ReqAt degrades to -1
	}
	k := reqKey{stream, id}
	if _, ok := t.reqAt[k]; !ok {
		t.reqAt[k] = at
	}
}

// TraceDeliver records a delivery served by a peer.
func (t *Tracer) TraceDeliver(stream wire.StreamID, id wire.PacketID, from wire.NodeID, at time.Duration) {
	if !t.sampled(id) {
		return
	}
	k := reqKey{stream, id}
	reqAt, ok := t.reqAt[k]
	if ok {
		delete(t.reqAt, k)
	} else {
		reqAt = -1
	}
	t.push(HopRecord{Node: t.self, From: from, Stream: stream, ID: id,
		At: at, ReqAt: reqAt})
}

func (t *Tracer) push(rec HopRecord) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
		return
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.truncated++
}

// Records returns the retained hop records, oldest first.
func (t *Tracer) Records() []HopRecord {
	out := make([]HopRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Truncated returns how many records the full ring overwrote.
func (t *Tracer) Truncated() int { return t.truncated }

// WriteJSONL exports the retained records as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Records())
}

type hopJSON struct {
	Node    int64 `json:"node"`
	From    int64 `json:"from"`
	Stream  int64 `json:"stream"`
	ID      int64 `json:"id"`
	AtNs    int64 `json:"at_ns"`
	ReqNs   int64 `json:"req_ns"`
	Publish bool  `json:"publish,omitempty"`
}

// WriteJSONL writes hop records as one JSON object per line. The encoding
// is byte-deterministic for identical record slices: field order is fixed
// and every value is integral.
func WriteJSONL(w io.Writer, recs []HopRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(hopJSON{
			Node:    int64(r.Node),
			From:    int64(r.From),
			Stream:  int64(r.Stream),
			ID:      int64(r.ID),
			AtNs:    int64(r.At),
			ReqNs:   int64(r.ReqAt),
			Publish: r.Publish,
		}); err != nil {
			return err
		}
	}
	return nil
}
