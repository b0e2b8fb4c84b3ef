package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// multiCluster wires n engines over a simulated network with several
// concurrent streams. Node k (k < streams) publishes stream k.
type multiCluster struct {
	net     *simnet.Network
	engines []*Engine
	// deliver[node][stream] collects delivered ids.
	deliver []map[wire.StreamID][]wire.PacketID
}

func newMultiCluster(t *testing.T, n int, streamCfgs map[wire.StreamID]StreamConfig, mutate func(i int, cfg *Config)) *multiCluster {
	t.Helper()
	net := simnet.New(simnet.Config{
		Seed:    21,
		Latency: simnet.ConstantLatency(10 * time.Millisecond),
	})
	dir := membership.NewDirectory(n)
	c := &multiCluster{
		net:     net,
		engines: make([]*Engine, n),
		deliver: make([]map[wire.StreamID][]wire.PacketID, n),
	}
	for i := 0; i < n; i++ {
		i := i
		c.deliver[i] = make(map[wire.StreamID][]wire.PacketID)
		cfg := Config{
			Fanout:       6,
			GossipPeriod: 100 * time.Millisecond,
			Sampler:      dir.ViewFor(wire.NodeID(i)),
			OnDeliver: func(ev wire.Event, _ time.Duration) {
				c.deliver[i][ev.Stream] = append(c.deliver[i][ev.Stream], ev.ID)
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		c.engines[i] = MustNew(cfg)
		// Open in sorted id order: the open order is the gossip-round flush
		// order, and the test must be deterministic across runs.
		ids := make([]wire.StreamID, 0, len(streamCfgs))
		for id := range streamCfgs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if err := c.engines[i].OpenStream(id, streamCfgs[id]); err != nil {
				t.Fatal(err)
			}
		}
		net.AddNode(c.engines[i], simnet.NodeConfig{})
	}
	return c
}

// TestMultiStreamIsolation publishes the SAME packet ids on two streams and
// requires every node to deliver both copies — near-fully (gossip misses a
// (node, event) pair with probability ~e^-f; that residual is what the
// paper's FEC masks) and exactly once per stream: per-stream state must not
// collide on the shared id space.
func TestMultiStreamIsolation(t *testing.T) {
	streams := map[wire.StreamID]StreamConfig{3: {}, 7: {}}
	c := newMultiCluster(t, 40, streams, func(_ int, cfg *Config) { cfg.Fanout = 8 })
	const events = 10
	for i := 0; i < events; i++ {
		i := i
		c.net.Schedule(time.Duration(i)*30*time.Millisecond, func() {
			c.engines[0].Publish(wire.Event{ID: wire.PacketID(i), Stream: 3, Payload: make([]byte, 100)})
			c.engines[1].Publish(wire.Event{ID: wire.PacketID(i), Stream: 7, Payload: make([]byte, 100)})
		})
	}
	c.net.Run(time.Minute)
	total := 0
	for i, byStream := range c.deliver {
		for _, sid := range []wire.StreamID{3, 7} {
			got := byStream[sid]
			if len(got) < events-1 {
				t.Fatalf("node %d delivered %d of %d events on stream %d", i, len(got), events, sid)
			}
			total += len(got)
			seen := map[wire.PacketID]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("node %d delivered id %d twice on stream %d", i, id, sid)
				}
				seen[id] = true
			}
		}
	}
	if want := 40 * events * 2; total < want*99/100 {
		t.Fatalf("system-wide delivery %d of %d below 99%%", total, want)
	}
	// Cross-check the tables: id 0 is delivered on both streams but the
	// engines never opened (or saw) stream 0.
	e := c.engines[5]
	if !e.lookupStream(3).packets.delivered(0) || !e.lookupStream(7).packets.delivered(0) {
		t.Fatal("stream tables miss delivered ids")
	}
	if e.lookupStream(0) != nil {
		t.Fatal("stream 0 opened although it never existed")
	}
}

// TestLazyStreamOpen checks that a receiver with no stream configuration
// tracks a new stream on first contact.
func TestLazyStreamOpen(t *testing.T) {
	c := newMultiCluster(t, 20, nil, nil) // nobody opens anything
	c.net.Schedule(0, func() {
		c.engines[0].Publish(wire.Event{ID: 1, Stream: 9, Payload: make([]byte, 50)})
	})
	c.net.Run(30 * time.Second)
	for i, byStream := range c.deliver {
		if len(byStream[9]) != 1 {
			t.Fatalf("node %d delivered %v on lazily opened stream 9", i, byStream[9])
		}
	}
}

// TestStreamLimitBoundsState verifies the hostile-input bound: streams past
// maxTrackedStreams are ignored rather than allocating state.
func TestStreamLimitBoundsState(t *testing.T) {
	dir := membership.NewDirectory(2)
	net := simnet.New(simnet.Config{Seed: 3})
	e := MustNew(Config{Fanout: 1, Sampler: dir.ViewFor(0)})
	net.AddNode(e, simnet.NodeConfig{})
	net.Schedule(0, func() {
		for s := 0; s < 4*maxTrackedStreams; s++ {
			e.Receive(1, &wire.Propose{Stream: wire.StreamID(s + 1), IDs: []wire.PacketID{1}})
		}
	})
	net.Run(time.Second)
	if got := len(e.streams); got != maxTrackedStreams {
		t.Fatalf("engine tracks %d streams, want the %d bound", got, maxTrackedStreams)
	}
}

// TestOpenStreamValidation pins OpenStream's error cases.
func TestOpenStreamValidation(t *testing.T) {
	dir := membership.NewDirectory(2)
	e := MustNew(Config{Fanout: 1, Sampler: dir.ViewFor(0)})
	if err := e.OpenStream(1, StreamConfig{RateKbps: 600}); err != nil {
		t.Fatal(err)
	}
	if err := e.OpenStream(1, StreamConfig{}); err == nil {
		t.Fatal("duplicate OpenStream accepted")
	}
	if err := e.OpenStream(2, StreamConfig{RateKbps: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// TestBudgetScale pins the fanout-budget allocator's arithmetic: inert for
// single streams and uncapped nodes, rate-weighted division once several
// streams exceed the budget.
func TestBudgetScale(t *testing.T) {
	dir := membership.NewDirectory(2)
	mk := func(uploadKbps uint32, rel float64) *Engine {
		cfg := Config{Fanout: 7, UploadKbps: uploadKbps, Sampler: dir.ViewFor(0)}
		if rel > 0 {
			cfg.Adaptive = true
			cfg.Capabilities = fixedRel(rel)
		}
		return MustNew(cfg)
	}

	// Single stream: always scale 1, however overloaded.
	e := mk(100, 0)
	if err := e.OpenStream(0, StreamConfig{RateKbps: 600}); err != nil {
		t.Fatal(err)
	}
	if got := e.budgetScale(); got != 1 {
		t.Fatalf("single-stream scale = %v, want 1 (allocator arbitrates competition only)", got)
	}

	// Two streams over budget: scale = budget / (rel * sum rates).
	e = mk(512, 0.75)
	for sid, rate := range map[wire.StreamID]float64{0: 600, 1: 600} {
		if err := e.OpenStream(sid, StreamConfig{RateKbps: rate}); err != nil {
			t.Fatal(err)
		}
	}
	want := 0.8 * 512 / (0.75 * 1200)
	if got := e.budgetScale(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("scale = %v, want %v", got, want)
	}

	// Plenty of budget: scale stays 1.
	e = mk(10_000, 0)
	for sid, rate := range map[wire.StreamID]float64{0: 600, 1: 600} {
		if err := e.OpenStream(sid, StreamConfig{RateKbps: rate}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.budgetScale(); got != 1 {
		t.Fatalf("under-budget scale = %v, want 1", got)
	}

	// No budget configured: allocator disabled.
	e = mk(0, 0)
	for sid, rate := range map[wire.StreamID]float64{0: 600, 1: 600} {
		if err := e.OpenStream(sid, StreamConfig{RateKbps: rate}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.budgetScale(); got != 1 {
		t.Fatalf("unbudgeted scale = %v, want 1", got)
	}
}

// TestRetireStreamReleasesBudget: retiring a finished stream returns its
// rate weight to the remaining streams, while its dissemination state (the
// serve buffer for stragglers) stays intact.
func TestRetireStreamReleasesBudget(t *testing.T) {
	dir := membership.NewDirectory(2)
	// Budget 0.8 × 750 = 600 kbps: room for exactly one 600 kbps stream.
	e := MustNew(Config{Fanout: 7, UploadKbps: 750, Sampler: dir.ViewFor(0)})
	for _, sid := range []wire.StreamID{0, 1} {
		if err := e.OpenStream(sid, StreamConfig{RateKbps: 600}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.budgetScale(); got != 0.5 {
		t.Fatalf("contended scale = %v, want 0.5", got)
	}
	net := simnet.New(simnet.Config{Seed: 6})
	net.AddNode(e, simnet.NodeConfig{})
	net.Schedule(0, func() {
		e.Publish(wire.Event{ID: 1, Stream: 0, Payload: make([]byte, 10)})
	})
	net.Run(time.Second)
	e.RetireStream(0)
	if got := e.budgetScale(); got != 1 {
		t.Fatalf("scale after retire = %v, want 1 (stream 1 alone is within budget)", got)
	}
	if !e.lookupStream(0).packets.delivered(1) || e.BufferedEvents() != 1 {
		t.Fatal("retiring dropped the stream's dissemination state")
	}
	e.RetireStream(0)  // idempotent
	e.RetireStream(42) // unknown: no-op
	if got := e.budgetScale(); got != 1 {
		t.Fatalf("scale after redundant retires = %v, want 1", got)
	}
}

// TestBudgetScaleShrinksFanout verifies the allocator actually reaches the
// wire: with two streams over budget, mean fanout per round drops by the
// scale factor (stochastic rounding preserving the mean).
func TestBudgetScaleShrinksFanout(t *testing.T) {
	dir := membership.NewDirectory(100)
	e := MustNew(Config{Fanout: 7, UploadKbps: 750, Sampler: dir.ViewFor(0)})
	for sid, rate := range map[wire.StreamID]float64{0: 600, 1: 600} {
		if err := e.OpenStream(sid, StreamConfig{RateKbps: rate}); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.New(simnet.Config{Seed: 4})
	net.AddNode(e, simnet.NodeConfig{})
	net.Run(time.Millisecond)
	var sum int
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		sum += e.fanout()
	}
	mean := float64(sum) / rounds
	want := 7 * 0.5 // scale = 0.8×750/(600+600)
	if mean < want-0.15 || mean > want+0.15 {
		t.Fatalf("mean budgeted fanout %.3f, want ~%.2f", mean, want)
	}
}

// TestSetUploadBudget pins the adaptation seam: the allocator starts from the
// configured UploadKbps and stays there untouched, a lowered budget is taken
// as given and rebalances the streams, a raised one is clamped to the
// configured capability, and an engine without a budget ignores the call.
func TestSetUploadBudget(t *testing.T) {
	dir := membership.NewDirectory(2)
	e := MustNew(Config{Fanout: 7, UploadKbps: 1000, Sampler: dir.ViewFor(0)})
	for _, sid := range []wire.StreamID{0, 1} {
		if err := e.OpenStream(sid, StreamConfig{RateKbps: 600}); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.New(simnet.Config{Seed: 78})
	net.AddNode(e, simnet.NodeConfig{})
	net.AddNode(silentHandler{}, simnet.NodeConfig{})
	net.Run(5 * time.Second)
	if e.UploadBudget() != 1000 {
		t.Fatalf("budget %d drifted from the configured 1000 with nothing adapting it", e.UploadBudget())
	}
	e.SetUploadBudget(400)
	if e.UploadBudget() != 400 {
		t.Fatalf("budget %d after SetUploadBudget(400)", e.UploadBudget())
	}
	if got, want := e.budgetScale(), 0.8*400/1200; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("scale = %v off the lowered budget, want %v", got, want)
	}
	e.SetUploadBudget(5000)
	if e.UploadBudget() != 1000 {
		t.Fatalf("budget %d after SetUploadBudget(5000), want the configured 1000", e.UploadBudget())
	}
	e = MustNew(Config{Fanout: 7, Sampler: dir.ViewFor(0)})
	e.SetUploadBudget(400)
	if e.UploadBudget() != 0 {
		t.Fatalf("unbudgeted engine took budget %d", e.UploadBudget())
	}
}
