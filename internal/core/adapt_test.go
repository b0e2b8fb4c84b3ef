package core

import (
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/membership"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// advertRecorder is a CapabilityEstimator that also records SetSelfCapKbps
// calls, standing in for aggregation.Estimator in adaptation tests.
type advertRecorder struct {
	rel   float64
	calls []uint32
}

func (a *advertRecorder) RelativeCapability() float64 { return a.rel }
func (a *advertRecorder) SetSelfCapKbps(kbps uint32)  { a.calls = append(a.calls, kbps) }

// adaptEngine builds one engine on a tiny simnet with a scripted pressure
// signal and two budget-weighted streams (so budgetScale is live).
func adaptEngine(t *testing.T, signal func() adapt.Sample) (*Engine, *advertRecorder, *simnet.Network) {
	t.Helper()
	ctrl, err := adapt.NewController(adapt.Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rec := &advertRecorder{rel: 1}
	dir := membership.NewDirectory(4)
	e := MustNew(Config{
		Fanout:       7,
		Adaptive:     true,
		Capabilities: rec,
		UploadKbps:   1000,
		Sampler:      dir.ViewFor(0),
		Adapt:        ctrl,
		AdaptSignal:  signal,
	})
	for _, id := range []wire.StreamID{0, 1} {
		if err := e.OpenStream(id, StreamConfig{RateKbps: 600}); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.New(simnet.Config{Seed: 77})
	net.AddNode(e, simnet.NodeConfig{})
	for i := 1; i < 4; i++ {
		net.AddNode(silentHandler{}, simnet.NodeConfig{})
	}
	return e, rec, net
}

func TestAdaptValidation(t *testing.T) {
	ctrl, err := adapt.NewController(adapt.Config{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	dir := membership.NewDirectory(2)
	if _, err := New(Config{Fanout: 7, Sampler: dir.ViewFor(0), Adapt: ctrl}); err == nil {
		t.Error("Adapt without AdaptSignal accepted")
	}
	if _, err := New(Config{Fanout: 7, Sampler: dir.ViewFor(0),
		AdaptSignal: func() adapt.Sample { return adapt.Sample{} }}); err == nil {
		t.Error("AdaptSignal without Adapt accepted")
	}
}

// TestAdaptTickReadvertisesAndShrinksBudget drives the engine under a
// scripted saturation signal: the controller must cut the advertisement
// through the estimator hook and the fanout-budget allocator must rebalance
// off the adapted (not the configured) capability.
func TestAdaptTickReadvertisesAndShrinksBudget(t *testing.T) {
	var sent int64
	congested := true
	e, rec, net := adaptEngine(t, func() adapt.Sample {
		// Enqueue-side bytes grow at ~1000 kbps while only ~400 kbps drain:
		// a saturated uplink with a standing queue.
		sent += 62_500 // 1000 kbps * 500 ms / 8
		s := adapt.Sample{SentBytes: sent, QueuedBytes: sent * 6 / 10}
		if congested {
			s.Backlog = 2 * time.Second
		}
		return s
	})
	baseline := e.budgetScale()
	// predicted 1200 > budget 0.8*1000: the allocator is already active.
	if baseline >= 1 {
		t.Fatalf("setup: budget scale %v, want < 1", baseline)
	}
	net.Run(10 * time.Second)
	if len(rec.calls) == 0 {
		t.Fatal("sustained congestion never re-advertised")
	}
	for _, v := range rec.calls {
		if v >= 1000 {
			t.Fatalf("re-advertised %d, want below the configured 1000", v)
		}
		if v < e.cfg.Adapt.FloorKbps() {
			t.Fatalf("re-advertised %d below the floor %d", v, e.cfg.Adapt.FloorKbps())
		}
	}
	if got := e.budgetScale(); got >= baseline {
		t.Fatalf("budget scale %v did not shrink below the configured-capability scale %v", got, baseline)
	}
	if e.effUploadKbps != e.cfg.Adapt.EffectiveKbps() {
		t.Fatalf("budget capability %d does not track the controller's %d",
			e.effUploadKbps, e.cfg.Adapt.EffectiveKbps())
	}

	// Recovery: a drained signal must probe the advertisement back up and
	// restore the budget toward the configured value.
	congested = false
	low := e.cfg.Adapt.EffectiveKbps()
	net.Run(60 * time.Second)
	if got := e.cfg.Adapt.EffectiveKbps(); got <= low {
		t.Fatalf("drained uplink never probed upward (stuck at %d)", got)
	}
}

// TestAdaptDisabledIsInert pins the inertness contract: without Adapt the
// engine performs no sampling and the budget uses the configured capability.
func TestAdaptDisabledIsInert(t *testing.T) {
	dir := membership.NewDirectory(2)
	e := MustNew(Config{Fanout: 7, UploadKbps: 1000, Sampler: dir.ViewFor(0)})
	net := simnet.New(simnet.Config{Seed: 78})
	net.AddNode(e, simnet.NodeConfig{})
	net.AddNode(silentHandler{}, simnet.NodeConfig{})
	net.Run(5 * time.Second)
	if e.effUploadKbps != 1000 {
		t.Fatalf("effective budget %d drifted without an adapt controller", e.effUploadKbps)
	}
}
