package stack

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/misbehave"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// stubRuntime records what a stack asks of its substrate: timers in the
// order they were armed, copies of messages in the order they were sent
// (Send keeps nothing of the sender's message).
type stubRuntime struct {
	id     wire.NodeID
	now    time.Duration
	rng    *rand.Rand
	timers []func()
	sent   []sentMsg
	copies wire.Pool // never refilled, so every copy is fresh storage
}

type sentMsg struct {
	to  wire.NodeID
	msg wire.Message
}

func newStub(id wire.NodeID) *stubRuntime {
	return &stubRuntime{id: id, rng: rand.New(rand.NewSource(1))}
}

func (s *stubRuntime) ID() wire.NodeID    { return s.id }
func (s *stubRuntime) Now() time.Duration { return s.now }
func (s *stubRuntime) Rand() *rand.Rand   { return s.rng }
func (s *stubRuntime) Send(to wire.NodeID, m wire.Message) {
	s.sent = append(s.sent, sentMsg{to, s.copies.Copy(m)})
}
func (s *stubRuntime) AfterFunc(_ time.Duration, fn func()) {
	s.timers = append(s.timers, fn)
}
func peerIDs(n int) []wire.NodeID { return membership.NewDirectory(n).IDs() }

func smallStream(id wire.StreamID, source bool) Stream {
	return Stream{
		SourceConfig: stream.SourceConfig{Stream: id, Geometry: stream.PaperGeometry(), Windows: 1},
		Source:       source,
	}
}

// startProbe reports how many timers were armed before the engine started:
// every handler ahead of it arms exactly one in Start.
type startProbe struct {
	env.Handler
	rt      *stubRuntime
	armedAt int
}

func (p *startProbe) Start(rt env.Runtime) {
	p.armedAt = len(p.rt.timers)
	p.Handler.Start(rt)
}

// TestBuildStartOrder pins the Start order — peer sampling, size averager,
// capability estimator, engine, sources — by firing each handler's first
// timer in arming order and reading the message kind it sends.
func TestBuildStartOrder(t *testing.T) {
	rt := newStub(0)
	probe := &startProbe{rt: rt}
	n, err := Build(Spec{
		ID:             0,
		Cyclon:         membership.NewCyclon(membership.CyclonConfig{}, []wire.NodeID{1, 2, 3}),
		Engine:         core.Config{Fanout: 3},
		AdvertisedKbps: 700,
		Aggregation:    &aggregation.Config{},
		SizeEstimator:  &aggregation.AveragerConfig{InitialValue: 1},
		Intercept: func(h env.Handler) env.Handler {
			probe.Handler = h
			return probe
		},
		Streams: []Stream{smallStream(0, true)},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Handler.Start(rt)
	if probe.armedAt != 3 {
		t.Fatalf("engine started after %d armed timers, want 3 (pss, averager, estimator)", probe.armedAt)
	}
	var kinds []wire.Kind
	for _, fire := range append([]func(){}, rt.timers...) {
		before := len(rt.sent)
		fire()
		if len(rt.sent) > before {
			kinds = append(kinds, rt.sent[before].msg.Kind())
		}
	}
	// The engine's round and prune timers send nothing on an empty node; the
	// source's first tick publishes, which proposes at once.
	want := []wire.Kind{wire.KindShuffleReq, wire.KindAvgPush, wire.KindAggregate, wire.KindPropose}
	if len(kinds) != len(want) {
		t.Fatalf("first-timer sends = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("first-timer sends = %v, want %v", kinds, want)
		}
	}
}

// TestBuildPlainStack checks that a Spec with every optional part nil builds
// the paper's plain stack: an engine over the view and nothing else.
func TestBuildPlainStack(t *testing.T) {
	view := membership.NewView(0, peerIDs(8))
	n, err := Build(Spec{View: view, Engine: core.Config{Fanout: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Engine == nil || n.View != view || n.Handler == nil {
		t.Fatalf("plain stack is missing its engine, view or handler: %+v", n)
	}
	if n.Estimator != nil || n.Averager != nil || n.Controller != nil ||
		n.Detector != nil || n.Tracer != nil || len(n.Sources) != 0 {
		t.Fatalf("plain stack grew optional parts: %+v", n)
	}
	rt := newStub(0)
	n.Handler.Start(rt)
	if len(rt.timers) != 2 {
		t.Fatalf("plain stack armed %d timers, want the engine's round and prune", len(rt.timers))
	}
	if _, err := Build(Spec{Engine: core.Config{Fanout: 3}}); err == nil {
		t.Fatal("Build accepted a Spec without membership")
	}
	if _, err := Build(Spec{
		Cyclon: membership.NewCyclon(membership.CyclonConfig{}, nil),
		Engine: core.Config{Fanout: 3, FanoutIntra: 2, FanoutInter: 1},
	}); err == nil {
		t.Fatal("Build accepted hierarchical fanout over Cyclon")
	}
}

// TestBuildEveryPart checks each optional Spec field yields its part.
func TestBuildEveryPart(t *testing.T) {
	n, err := Build(Spec{
		ID:             4,
		View:           membership.NewView(4, peerIDs(8)),
		Engine:         core.Config{Fanout: 3},
		AdvertisedKbps: 700,
		Aggregation:    &aggregation.Config{},
		SizeEstimator:  &aggregation.AveragerConfig{},
		Adapt:          &adapt.Config{},
		AdaptSignal:    func() adapt.Sample { return adapt.Sample{} },
		Detect:         &misbehave.Config{},
		Trace:          &telemetry.TraceConfig{},
		Streams:        []Stream{smallStream(0, false), smallStream(1, true)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Estimator == nil || n.Averager == nil || n.Controller == nil ||
		n.Detector == nil || n.Tracer == nil || len(n.Sources) != 1 {
		t.Fatalf("a requested part is missing: %+v", n)
	}
	if got := n.Controller.ConfiguredKbps(); got != 700 {
		t.Fatalf("controller ceiling = %d kbps, want the advertised 700", got)
	}
	names := map[string]bool{}
	n.Collect(func(name string, _ float64) { names[name] = true })
	for _, want := range []string{"engine_events_delivered_total", "heap_bbar_kbps"} {
		if !names[want] {
			t.Fatalf("Collect did not emit %s (got %d names)", want, len(names))
		}
	}
}

// TestDetectorReachesEveryDraw checks the four places one detector must
// reach: with a peer quarantined it never appears in flat draws, in split
// draws, in the capability average, nor as a request target.
func TestDetectorReachesEveryDraw(t *testing.T) {
	const self, bad = wire.NodeID(0), wire.NodeID(5)
	clusterOf := func(id wire.NodeID) int { return int(id) % 2 }
	for _, tc := range []struct {
		name   string
		view   *membership.View
		engine core.Config
	}{
		{"flat", membership.NewView(self, peerIDs(12)), core.Config{Fanout: 4}},
		{"split", membership.NewClusterView(self, peerIDs(12), clusterOf),
			core.Config{Fanout: 4, FanoutIntra: 2, FanoutInter: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build(Spec{
				ID:             self,
				View:           tc.view,
				Engine:         tc.engine,
				AdvertisedKbps: 700,
				Aggregation:    &aggregation.Config{},
				Detect:         &misbehave.Config{},
			})
			if err != nil {
				t.Fatal(err)
			}
			rt := newStub(self)
			n.Handler.Start(rt)
			n.Detector.Quarantine(bad, 0)

			// Target draws: each publish proposes to a fresh fanout draw.
			for id := 0; id < 300; id++ {
				n.Engine.Publish(wire.Event{ID: wire.PacketID(id)})
			}
			proposes := 0
			for _, s := range rt.sent {
				if s.msg.Kind() != wire.KindPropose {
					continue
				}
				proposes++
				if s.to == bad {
					t.Fatalf("proposed to quarantined peer %d", bad)
				}
			}
			if proposes < 300 {
				t.Fatalf("only %d proposes over 300 publishes: the draw is not being exercised", proposes)
			}

			// Capability average: the quarantined peer's claim is expelled.
			n.Handler.Receive(1, &wire.Aggregate{Entries: []wire.CapEntry{
				{Node: bad, CapKbps: 1_000_000},
				{Node: 1, CapKbps: 700},
			}})
			if got := n.Estimator.EstimateKbps(); got != 700 {
				t.Fatalf("bbar = %v kbps with the quarantined claim excluded, want 700", got)
			}

			// Request targets: a quarantined proposer is never asked.
			rt.sent = nil
			n.Handler.Receive(bad, &wire.Propose{IDs: []wire.PacketID{9000}})
			n.Handler.Receive(2, &wire.Propose{IDs: []wire.PacketID{9001}})
			for _, s := range rt.sent {
				if s.msg.Kind() == wire.KindRequest && s.to == bad {
					t.Fatalf("requested from quarantined peer %d", bad)
				}
			}
			if len(rt.sent) != 1 || rt.sent[0].to != 2 {
				t.Fatalf("sends after two proposals = %+v, want one request to the honest proposer", rt.sent)
			}
			if got := n.Engine.Stats().ProposesIgnored; got != 1 {
				t.Fatalf("ProposesIgnored = %d, want 1", got)
			}
		})
	}
}

// TestBuildObserverOrder pins the observers Build hands the engine: with
// adaptation, detection and tracing, exactly those three in that order (the
// adaptation's Tick must run before the detector's); with none of them, an
// empty list.
func TestBuildObserverOrder(t *testing.T) {
	spec := Spec{
		View:           membership.NewView(0, peerIDs(4)),
		Engine:         core.Config{Fanout: 3},
		AdvertisedKbps: 700,
		Adapt:          &adapt.Config{},
		AdaptSignal:    func() adapt.Sample { return adapt.Sample{} },
		Detect:         &misbehave.Config{},
		Trace:          &telemetry.TraceConfig{},
	}
	n, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	obs := n.observers(&spec)
	if len(obs) != 3 {
		t.Fatalf("observers = %#v, want adaptation, detector, tracer", obs)
	}
	if a, ok := obs[0].(*adaptObserver); !ok || a.node != n {
		t.Fatalf("observer 0 = %#v, want the node's adaptation observer", obs[0])
	}
	if obs[1] != core.Observer(n.Detector) || obs[2] != core.Observer(n.Tracer) {
		t.Fatalf("observers 1, 2 = %#v, %#v, want the node's detector and tracer", obs[1], obs[2])
	}

	spec = Spec{View: membership.NewView(0, peerIDs(4)), Engine: core.Config{Fanout: 3}}
	if n, err = Build(spec); err != nil {
		t.Fatal(err)
	}
	if obs := n.observers(&spec); len(obs) != 0 {
		t.Fatalf("observers = %#v without Adapt, Detect or Trace, want none", obs)
	}
}

// TestAdaptValidation checks that Build refuses a controller without a
// pressure signal and a signal without a controller.
func TestAdaptValidation(t *testing.T) {
	view := membership.NewView(0, peerIDs(2))
	if _, err := Build(Spec{View: view, Engine: core.Config{Fanout: 7}, AdvertisedKbps: 100,
		Adapt: &adapt.Config{}}); err == nil {
		t.Error("Adapt without AdaptSignal accepted")
	}
	if _, err := Build(Spec{View: view, Engine: core.Config{Fanout: 7}, AdvertisedKbps: 100,
		AdaptSignal: func() adapt.Sample { return adapt.Sample{} }}); err == nil {
		t.Error("AdaptSignal without Adapt accepted")
	}
}

// TestAdaptTickReadvertisesAndShrinksBudget drives a HEAP node under a
// scripted saturation signal: the controller must cut the advertisement
// through the capability estimator, never below its floor, and the engine's
// fanout-budget allocator must divide the adapted (not the configured)
// capability; a drained signal must then probe the advertisement back up.
func TestAdaptTickReadvertisesAndShrinksBudget(t *testing.T) {
	var sent int64
	var readvertised []uint32
	congested := true
	n, err := Build(Spec{
		View:           membership.NewView(0, peerIDs(4)),
		Engine:         core.Config{Fanout: 7, UploadKbps: 1000},
		AdvertisedKbps: 1000,
		Aggregation:    &aggregation.Config{},
		Adapt:          &adapt.Config{},
		AdaptSignal: func() adapt.Sample {
			// Enqueue-side bytes grow at ~1000 kbps while only ~400 kbps
			// drain: a saturated uplink with a standing queue.
			sent += 62_500 // 1000 kbps * 500 ms / 8
			s := adapt.Sample{SentBytes: sent, QueuedBytes: sent * 6 / 10}
			if congested {
				s.Backlog = 2 * time.Second
			}
			return s
		},
		OnAdapt: func(effKbps uint32) { readvertised = append(readvertised, effKbps) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := &clockRuntime{stubRuntime: newStub(0)}
	n.Handler.Start(rt)
	rt.advance(10 * time.Second)
	if len(readvertised) == 0 {
		t.Fatal("sustained congestion never re-advertised")
	}
	for _, v := range readvertised {
		if v >= 1000 {
			t.Fatalf("re-advertised %d, want below the configured 1000", v)
		}
		if v < n.Controller.FloorKbps() {
			t.Fatalf("re-advertised %d below the floor %d", v, n.Controller.FloorKbps())
		}
	}
	eff := n.Controller.EffectiveKbps()
	if got := n.Estimator.EstimateKbps(); got != float64(eff) {
		t.Fatalf("estimator advertises %v kbps, want the controller's %d", got, eff)
	}
	if got := n.Engine.UploadBudget(); got != eff {
		t.Fatalf("budget capability %d does not track the controller's %d", got, eff)
	}

	// Recovery: a drained signal must probe the advertisement back up.
	congested = false
	rt.advance(60 * time.Second)
	if got := n.Controller.EffectiveKbps(); got <= eff {
		t.Fatalf("drained uplink never probed upward (stuck at %d)", got)
	}
	if got := n.Engine.UploadBudget(); got != n.Controller.EffectiveKbps() {
		t.Fatalf("budget capability %d does not track the restored %d", got, n.Controller.EffectiveKbps())
	}
}
