package misbehave_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/misbehave"
	"repro/internal/wire"
)

// armed returns a verdict-issuing detector with the stock thresholds.
func armed(t *testing.T) *misbehave.Detector {
	t.Helper()
	return misbehave.MustNew(misbehave.Config{Armed: true})
}

func TestDetectorConfigValidation(t *testing.T) {
	bad := []misbehave.Config{
		{EvalInterval: -time.Second},
		{MinServeEvidence: -1},
		{ServeRatioFloor: 1.5},
		{ServeRatioFloor: -0.1},
		{ServeRatioFloor: math.NaN()},
		{ReleaseRatio: 0.2}, // below the default floor of 0.35
		{ReleaseRatio: math.NaN()},
		{ServeRatioFloor: 0.6, ReleaseRatio: 0.5},
		{MinProposedIDs: -3},
	}
	for i, cfg := range bad {
		if _, err := misbehave.New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := misbehave.New(misbehave.Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	misbehave.MustNew(misbehave.Config{ServeRatioFloor: 2})
}

func TestDetectorServeDeficitQuarantineAndRelease(t *testing.T) {
	d := armed(t)
	const peer = wire.NodeID(3)

	// Five unserved requests: enough evidence, ratio 0.
	for i := 0; i < 5; i++ {
		d.ObserveTimeout(peer, 1, time.Duration(i)*100*time.Millisecond)
	}
	d.Tick(1 * time.Second)
	if !d.Quarantined(peer) {
		t.Fatal("freerider evidence did not quarantine")
	}
	if got := d.QuarantinedPeers(); len(got) != 1 || got[0] != peer {
		t.Fatalf("QuarantinedPeers = %v, want [%d]", got, peer)
	}
	evs := d.Events()
	if len(evs) != 1 || evs[0].Kind != misbehave.EventQuarantine ||
		evs[0].Reason != misbehave.ReasonServeDeficit || evs[0].Peer != peer {
		t.Fatalf("event log = %+v", evs)
	}
	first, ok := d.FirstQuarantinedAt(peer)
	if !ok || first != 1*time.Second {
		t.Fatalf("FirstQuarantinedAt = %v, %v", first, ok)
	}

	// Recovery: the peer starts serving. Ratio needs to climb back to the
	// release threshold (0.5) with serves issued after the verdict.
	for i := 0; i < 4; i++ {
		d.ObserveServeSeen(peer, 1, 1000, 2*time.Second)
	}
	d.Tick(2 * time.Second) // 4/9 < 0.5: still quarantined
	if !d.Quarantined(peer) {
		t.Fatal("released below the release ratio")
	}
	d.ObserveServeSeen(peer, 1, 1000, 3*time.Second)
	d.Tick(3 * time.Second) // 5/10 = 0.5 with fresh serves: released
	if d.Quarantined(peer) {
		t.Fatal("not released after recovery")
	}
	if d.QuarantineEvents() != 1 || d.ReleaseEvents() != 1 || d.QuarantineCount() != 0 {
		t.Fatalf("counters = %d quarantines, %d releases, %d current",
			d.QuarantineEvents(), d.ReleaseEvents(), d.QuarantineCount())
	}
	// The first-quarantine stamp survives the release.
	if again, ok := d.FirstQuarantinedAt(peer); !ok || again != first {
		t.Fatalf("first-quarantine stamp moved: %v, %v", again, ok)
	}
}

// TestDetectorLateServerBoundary pins the design constraint documented on
// ServeRatioFloor: an honest peer on a degraded link serves every id late —
// one timeout then one serve per id, ratio exactly 0.5 — and must never be
// quarantined by the stock thresholds.
func TestDetectorLateServerBoundary(t *testing.T) {
	d := armed(t)
	const peer = wire.NodeID(9)
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * time.Second
		d.ObserveTimeout(peer, 1, at)
		d.Tick(at)
		if d.Quarantined(peer) && i < 2 {
			// With one lone timeout the evidence floor protects the peer;
			// from evidence 5 on, the serve below restores 0.5 before the
			// next tick, so any quarantine here would be a detector bug.
			t.Fatalf("quarantined on sparse evidence at step %d", i)
		}
		d.ObserveServeSeen(peer, 1, 1000, at+500*time.Millisecond)
		d.Tick(at + 500*time.Millisecond)
	}
	if d.QuarantineEvents() != 0 {
		t.Fatalf("late server drew %d quarantines, want 0", d.QuarantineEvents())
	}
	ev, ok := d.EvidenceOf(peer)
	if !ok || ev.ServedEvents != 40 || ev.Timeouts != 40 {
		t.Fatalf("evidence = %+v, %v", ev, ok)
	}
}

func TestDetectorUnresponsiveQuarantineAndRelease(t *testing.T) {
	d := armed(t)
	const peer = wire.NodeID(4)

	d.ObserveProposeSent(peer, 14, 0)
	d.Tick(1 * time.Second)
	if d.Quarantined(peer) {
		t.Fatal("quarantined below MinProposedIDs")
	}
	d.ObserveProposeSent(peer, 1, 1*time.Second)
	d.Tick(2 * time.Second)
	if !d.Quarantined(peer) {
		t.Fatal("silent peer not quarantined at MinProposedIDs")
	}
	if evs := d.Events(); evs[len(evs)-1].Reason != misbehave.ReasonUnresponsive {
		t.Fatalf("reason = %v, want unresponsive", evs[len(evs)-1].Reason)
	}

	// A single request from the peer exonerates it.
	d.ObserveRequestSeen(peer, 1, 3*time.Second)
	d.Tick(3 * time.Second)
	if d.Quarantined(peer) {
		t.Fatal("not released after the peer requested")
	}
}

// TestDetectorSourceExempt checks the broadcaster exemption: a peer we have
// proposed plenty to but that also proposes to us (the source proposes
// constantly) is responsive by definition.
func TestDetectorSourceExempt(t *testing.T) {
	d := armed(t)
	const source = wire.NodeID(0)
	d.ObserveProposeSeen(source, 3, 100*time.Millisecond)
	d.ObserveProposeSent(source, 50, 200*time.Millisecond)
	d.Tick(1 * time.Second)
	if d.Quarantined(source) {
		t.Fatal("proposing peer quarantined as unresponsive")
	}
}

func TestDetectorUnarmedObservesOnly(t *testing.T) {
	d := misbehave.MustNew(misbehave.Config{})
	if d.Armed() {
		t.Fatal("zero config should be unarmed")
	}
	const peer = wire.NodeID(7)
	d.ObserveProposeSeen(peer, 2, 50*time.Millisecond)
	for i := 0; i < 10; i++ {
		d.ObserveTimeout(peer, 1, time.Duration(i)*time.Second)
		d.ObserveProposeSent(peer, 5, time.Duration(i)*time.Second)
		d.Tick(time.Duration(i) * time.Second)
	}
	if d.QuarantineEvents() != 0 || d.Quarantined(peer) {
		t.Fatal("unarmed detector issued a verdict")
	}
	// Evidence and first receipts still accumulate for the A/B off arm.
	if ev, ok := d.EvidenceOf(peer); !ok || ev.Timeouts != 10 || ev.ProposedIDs != 50 {
		t.Fatalf("evidence = %+v, %v", ev, ok)
	}
	if from, at, ok := d.FirstReceipt(); !ok || from != peer || at != 50*time.Millisecond {
		t.Fatalf("first receipt = %v at %v, %v", from, at, ok)
	}
}

func TestDetectorAliveGate(t *testing.T) {
	alive := false
	d := misbehave.MustNew(misbehave.Config{
		Armed: true,
		Alive: func(wire.NodeID) bool { return alive },
	})
	const peer = wire.NodeID(2)
	for i := 0; i < 8; i++ {
		d.ObserveTimeout(peer, 1, 0)
	}
	d.Tick(1 * time.Second)
	if d.Quarantined(peer) {
		t.Fatal("dead peer quarantined")
	}
	alive = true
	d.Tick(2 * time.Second)
	if !d.Quarantined(peer) {
		t.Fatal("live peer with damning evidence not quarantined")
	}
}

func TestDetectorManualOps(t *testing.T) {
	d := armed(t)
	const peer = wire.NodeID(5)
	d.Quarantine(peer, 1*time.Second)
	if !d.Quarantined(peer) || d.QuarantineCount() != 1 {
		t.Fatal("manual quarantine did not stick")
	}
	d.Quarantine(peer, 2*time.Second) // double quarantine is a no-op
	if d.QuarantineEvents() != 1 {
		t.Fatalf("double quarantine logged: %d events", d.QuarantineEvents())
	}
	// Manual verdicts have no rule-based release path: ticks leave them.
	d.ObserveRequestSeen(peer, 1, 2*time.Second)
	d.Tick(3 * time.Second)
	if !d.Quarantined(peer) {
		t.Fatal("tick released a manual quarantine")
	}
	d.Release(peer, 4*time.Second)
	if d.Quarantined(peer) || d.QuarantineCount() != 0 {
		t.Fatal("manual release did not stick")
	}
	d.Release(peer, 5*time.Second) // double release is a no-op
	if d.ReleaseEvents() != 1 {
		t.Fatalf("double release logged: %d events", d.ReleaseEvents())
	}
}

func TestDetectorAchievedThroughputWindow(t *testing.T) {
	d := misbehave.MustNew(misbehave.Config{})
	const peer = wire.NodeID(6)
	d.ObserveServeSeen(peer, 1, 0, 0) // track the peer; zero bytes
	d.Tick(0)                         // primes the window
	// 125000 bytes over one second is exactly 1000 kbps.
	d.ObserveServeSeen(peer, 1, 125000, 500*time.Millisecond)
	d.Tick(1 * time.Second)
	last, peak := d.AchievedKbps(peer)
	if math.Abs(last-1000) > 1e-9 || math.Abs(peak-1000) > 1e-9 {
		t.Fatalf("achieved = %v last, %v peak, want 1000", last, peak)
	}
	// An idle window decays the instantaneous rate but not the peak.
	d.Tick(2 * time.Second)
	last, peak = d.AchievedKbps(peer)
	if last != 0 || math.Abs(peak-1000) > 1e-9 {
		t.Fatalf("after idle window: %v last, %v peak", last, peak)
	}
}

func TestDetectorEvalIntervalQuantization(t *testing.T) {
	d := armed(t) // default EvalInterval 1 s
	const peer = wire.NodeID(1)
	d.Tick(0) // first tick always evaluates and anchors the interval
	for i := 0; i < 6; i++ {
		d.ObserveTimeout(peer, 1, 100*time.Millisecond)
	}
	d.Tick(400 * time.Millisecond) // within the interval: no evaluation
	if d.Quarantined(peer) {
		t.Fatal("evaluated inside the quantization interval")
	}
	d.Tick(1 * time.Second)
	if !d.Quarantined(peer) {
		t.Fatal("not evaluated at the interval boundary")
	}
	if evs := d.Events(); evs[0].At != 1*time.Second {
		t.Fatalf("verdict at %v, want 1s", evs[0].At)
	}
}

func TestDetectorHostileIDs(t *testing.T) {
	d := armed(t)
	hostile := []wire.NodeID{-1, -50, 1 << 20, 1<<20 + 7, 1 << 30}
	for _, id := range hostile {
		d.ObserveProposeSeen(id, 1, 0)
		d.ObserveProposeSent(id, 5, 0)
		d.ObserveRequestSeen(id, 1, 0)
		d.ObserveRequestSent(id, 5, 0)
		d.ObserveServeSeen(id, 1, 100, 0)
		d.ObserveTimeout(id, 10, 0)
		d.Quarantine(id, 0)
		d.Release(id, 0)
	}
	d.Tick(1 * time.Second)
	for _, id := range hostile {
		if d.Quarantined(id) {
			t.Fatalf("out-of-range id %d quarantined", id)
		}
		if _, ok := d.EvidenceOf(id); ok {
			t.Fatalf("out-of-range id %d tracked", id)
		}
	}
	if d.TrackedPeers() != 0 || d.QuarantineEvents() != 0 {
		t.Fatalf("hostile ids left state: %d tracked, %d events",
			d.TrackedPeers(), d.QuarantineEvents())
	}
	// Non-positive counts are ignored too.
	d.ObserveProposeSent(3, 0, 0)
	d.ObserveTimeout(3, -2, 0)
	if _, ok := d.EvidenceOf(3); ok {
		t.Fatal("zero-count observation tracked a peer")
	}
}

// TestDetectorEventLogBound drives enough verdict churn to overflow the
// bounded event log and checks the true totals survive the trim.
func TestDetectorEventLogBound(t *testing.T) {
	d := armed(t)
	var flips int64
	for i := 0; len(d.Events()) < 4096 || flips < 5000; i++ {
		id := wire.NodeID(i % 64)
		at := time.Duration(i) * time.Second
		d.Quarantine(id, at)
		d.Release(id, at)
		flips += 2
	}
	if got := len(d.Events()); got > 4096 {
		t.Fatalf("event log grew to %d entries", got)
	}
	if d.QuarantineEvents()+d.ReleaseEvents() != flips {
		t.Fatalf("true totals lost: %d+%d != %d",
			d.QuarantineEvents(), d.ReleaseEvents(), flips)
	}
	if d.QuarantineCount() != 0 {
		t.Fatalf("count drifted to %d", d.QuarantineCount())
	}
}

// --- Interceptor ---

// fakeRuntime satisfies env.Runtime for handler-level tests without a
// simulator.
type fakeRuntime struct {
	id  wire.NodeID
	now time.Duration
	rng *rand.Rand
}

func (r *fakeRuntime) ID() wire.NodeID                 { return r.id }
func (r *fakeRuntime) Now() time.Duration              { return r.now }
func (r *fakeRuntime) Send(wire.NodeID, wire.Message)  {}
func (r *fakeRuntime) AfterFunc(time.Duration, func()) {}
func (r *fakeRuntime) Rand() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(1))
	}
	return r.rng
}

// recordingHandler captures what survives the interceptor.
type recordingHandler struct {
	started, stopped bool
	msgs             []wire.Message
}

func (h *recordingHandler) Start(env.Runtime)                     { h.started = true }
func (h *recordingHandler) Receive(_ wire.NodeID, m wire.Message) { h.msgs = append(h.msgs, m) }
func (h *recordingHandler) Stop()                                 { h.stopped = true }

func TestInterceptorClassLabels(t *testing.T) {
	labels := map[misbehave.Class]string{
		misbehave.ClassHonest:    "honest",
		misbehave.ClassFreerider: "freerider",
		misbehave.ClassLiar:      "liar",
		misbehave.ClassDropper:   "dropper",
	}
	for c, want := range labels {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestInterceptorFreeriderDropsRequests(t *testing.T) {
	inner := &recordingHandler{}
	ic := &misbehave.Interceptor{Inner: inner, DropRequests: 1}
	ic.Start(&fakeRuntime{id: 9})
	if !inner.started {
		t.Fatal("Start not forwarded")
	}
	ic.Receive(1, &wire.Request{IDs: []wire.PacketID{1}})
	ic.Receive(1, &wire.Propose{IDs: []wire.PacketID{2}})
	ic.Receive(1, &wire.Serve{Events: []wire.Event{{}}})
	if ic.DroppedRequests != 1 || len(inner.msgs) != 2 {
		t.Fatalf("dropped %d requests, forwarded %d messages",
			ic.DroppedRequests, len(inner.msgs))
	}
	if _, isReq := inner.msgs[0].(*wire.Request); isReq {
		t.Fatal("a request leaked through a full-intensity freerider")
	}
	ic.Stop()
	if !inner.stopped {
		t.Fatal("Stop not forwarded")
	}
}

func TestInterceptorDropperDropsProposes(t *testing.T) {
	inner := &recordingHandler{}
	ic := &misbehave.Interceptor{Inner: inner, DropProposes: 1}
	ic.Start(&fakeRuntime{})
	ic.Receive(1, &wire.Propose{IDs: []wire.PacketID{1}})
	ic.Receive(1, &wire.Request{IDs: []wire.PacketID{1}})
	if ic.DroppedProposes != 1 || len(inner.msgs) != 1 {
		t.Fatalf("dropped %d proposes, forwarded %d", ic.DroppedProposes, len(inner.msgs))
	}
}

// TestInterceptorThinningExact pins the deterministic fractional accumulator:
// intensity p drops exactly ⌊p·n⌋ or ⌈p·n⌉ of every n messages, evenly spread,
// with no randomness involved.
func TestInterceptorThinningExact(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75} {
		inner := &recordingHandler{}
		ic := &misbehave.Interceptor{Inner: inner, DropRequests: p}
		ic.Start(&fakeRuntime{})
		const n = 1000
		for i := 0; i < n; i++ {
			ic.Receive(1, &wire.Request{IDs: []wire.PacketID{wire.PacketID(i)}})
		}
		want := int64(p * n)
		// One count of float slack: the accumulator sums p in binary
		// floating point, so 1000 × 0.1 lands a hair under 100.
		if ic.DroppedRequests < want-1 || ic.DroppedRequests > want+1 {
			t.Errorf("intensity %v dropped %d of %d, want ~%d",
				p, ic.DroppedRequests, n, want)
		}
		if int64(len(inner.msgs))+ic.DroppedRequests != n {
			t.Errorf("intensity %v lost messages: %d forwarded + %d dropped != %d",
				p, len(inner.msgs), ic.DroppedRequests, n)
		}
	}
}

func TestInterceptorOnset(t *testing.T) {
	inner := &recordingHandler{}
	rt := &fakeRuntime{}
	ic := &misbehave.Interceptor{Inner: inner, DropRequests: 1, Onset: 10 * time.Second}
	ic.Start(rt)
	rt.now = 9 * time.Second
	ic.Receive(1, &wire.Request{IDs: []wire.PacketID{1}})
	if ic.DroppedRequests != 0 || len(inner.msgs) != 1 {
		t.Fatal("sleeper misbehaved before onset")
	}
	rt.now = 10 * time.Second
	ic.Receive(1, &wire.Request{IDs: []wire.PacketID{2}})
	if ic.DroppedRequests != 1 || len(inner.msgs) != 1 {
		t.Fatal("sleeper stayed honest at onset")
	}
}
