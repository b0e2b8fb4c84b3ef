package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func TestNewValidation(t *testing.T) {
	dir := membership.NewDirectory(4)
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid standard", Config{Fanout: 7, Sampler: dir.ViewFor(0)}, false},
		{"zero fanout", Config{Sampler: dir.ViewFor(0)}, true},
		{"negative fanout", Config{Fanout: -1, Sampler: dir.ViewFor(0)}, true},
		{"NaN fanout", Config{Fanout: math.NaN(), Sampler: dir.ViewFor(0)}, true},
		{"NaN intra fanout", Config{Fanout: 7, FanoutIntra: math.NaN(), Sampler: dir.ViewFor(0)}, true},
		{"nil sampler", Config{Fanout: 7}, true},
		{"adaptive without estimator", Config{Fanout: 7, Adaptive: true, Sampler: dir.ViewFor(0)}, true},
		{"adaptive with estimator", Config{Fanout: 7, Adaptive: true,
			Capabilities: fixedRel(2), Sampler: dir.ViewFor(0)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

// fixedRel is a CapabilityEstimator returning a constant ratio.
type fixedRel float64

func (f fixedRel) RelativeCapability() float64 { return float64(f) }

// testCluster wires n engines over a simulated network. Node 0 is the
// source. Returns per-node delivery logs.
type testCluster struct {
	net     *simnet.Network
	engines []*Engine
	deliver [][]wire.PacketID
}

type clusterOpts struct {
	n         int
	fanout    float64
	adaptive  bool
	rel       []float64 // per-node relative capability (adaptive only)
	loss      float64
	uploadBps []int64
	retMax    int
	seed      int64
}

func newTestCluster(t *testing.T, o clusterOpts) *testCluster {
	t.Helper()
	if o.fanout == 0 {
		o.fanout = 6
	}
	net := simnet.New(simnet.Config{
		Seed:     o.seed,
		Latency:  simnet.ConstantLatency(10 * time.Millisecond),
		LossRate: o.loss,
	})
	dir := membership.NewDirectory(o.n)
	c := &testCluster{
		net:     net,
		engines: make([]*Engine, o.n),
		deliver: make([][]wire.PacketID, o.n),
	}
	for i := 0; i < o.n; i++ {
		i := i
		cfg := Config{
			Fanout:         o.fanout,
			GossipPeriod:   200 * time.Millisecond,
			RetMaxAttempts: o.retMax,
			Sampler:        dir.ViewFor(wire.NodeID(i)),
			OnDeliver: func(ev wire.Event, _ time.Duration) {
				c.deliver[i] = append(c.deliver[i], ev.ID)
			},
		}
		if o.adaptive {
			cfg.Adaptive = true
			rel := 1.0
			if o.rel != nil {
				rel = o.rel[i]
			}
			cfg.Capabilities = fixedRel(rel)
		}
		c.engines[i] = MustNew(cfg)
		var nc simnet.NodeConfig
		if o.uploadBps != nil {
			nc.UploadBps = o.uploadBps[i]
		}
		net.AddNode(c.engines[i], nc)
	}
	return c
}

func (c *testCluster) publish(at time.Duration, ev wire.Event) {
	c.net.Schedule(at, func() { c.engines[0].Publish(ev) })
}

func payload(n int) []byte { return make([]byte, n) }

func TestSingleEventReachesAllNodes(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 50, seed: 1})
	c.publish(0, wire.Event{ID: 1, Stamp: 0, Payload: payload(100)})
	c.net.Run(time.Minute)
	for i, got := range c.deliver {
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("node %d delivered %v, want [1]", i, got)
		}
	}
}

func TestDeliveryIsExactlyOnce(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 40, seed: 2, loss: 0.05, retMax: 4})
	for i := 0; i < 20; i++ {
		c.publish(time.Duration(i)*50*time.Millisecond,
			wire.Event{ID: wire.PacketID(i), Payload: payload(200)})
	}
	c.net.Run(2 * time.Minute)
	for node, got := range c.deliver {
		seen := map[wire.PacketID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("node %d delivered %d twice via upcall", node, id)
			}
			seen[id] = true
		}
	}
}

func TestStreamOfEventsNearFullDelivery(t *testing.T) {
	// Gossip with fanout f misses a (node, event) pair with probability
	// ~e^-f (that residual is what the paper's FEC masks), so assert
	// near-full rather than perfect delivery.
	const n, events = 60, 100
	c := newTestCluster(t, clusterOpts{n: n, fanout: 8, seed: 3})
	for i := 0; i < events; i++ {
		c.publish(time.Duration(i)*20*time.Millisecond,
			wire.Event{ID: wire.PacketID(i), Payload: payload(500)})
	}
	c.net.Run(3 * time.Minute)
	total := 0
	for node, got := range c.deliver {
		if len(got) < events*97/100 {
			t.Fatalf("node %d delivered %d of %d events", node, len(got), events)
		}
		total += len(got)
	}
	if total < n*events*99/100 {
		t.Fatalf("system-wide delivery %d of %d below 99%%", total, n*events)
	}
}

func TestInfectAndDieEachIDProposedOncePerNode(t *testing.T) {
	// With infect-and-die, each node proposes each id in exactly one round
	// (to f peers). Total proposes per id across the system is therefore
	// <= n*f. Verify the aggregate bound.
	const n = 30
	fanout := 5.0
	c := newTestCluster(t, clusterOpts{n: n, fanout: fanout, seed: 4})
	c.publish(0, wire.Event{ID: 1, Payload: payload(100)})
	c.net.Run(time.Minute)
	var proposes int64
	for _, e := range c.engines {
		proposes += e.Stats().ProposesSent
	}
	if proposes > int64(n*int(fanout)) {
		t.Fatalf("%d proposes for one id exceeds n*f = %d (infect-and-die violated)", proposes, n*int(fanout))
	}
	if proposes < int64(n) {
		t.Fatalf("implausibly few proposes: %d", proposes)
	}
}

func TestRequestDedupOnlyOneRequestPerID(t *testing.T) {
	// Without loss and without retransmission, each node must request each
	// id at most once, no matter how many proposals it receives.
	const n, events = 30, 10
	c := newTestCluster(t, clusterOpts{n: n, seed: 5, retMax: 1})
	for i := 0; i < events; i++ {
		c.publish(time.Duration(i)*20*time.Millisecond,
			wire.Event{ID: wire.PacketID(i), Payload: payload(100)})
	}
	c.net.Run(time.Minute)
	var served, delivered int64
	for _, e := range c.engines {
		st := e.Stats()
		served += st.EventsServed
		delivered += st.EventsDelivered
	}
	// Exactly-once invariant: every remote delivery corresponds to exactly
	// one serve (the source's own `events` deliveries are local publishes).
	if served != delivered-events {
		t.Fatalf("served %d events for %d remote deliveries; duplicates or losses without retransmission", served, delivered-events)
	}
	if delivered < int64(n*events*97/100) {
		t.Fatalf("delivered %d, want >= 97%% of %d", delivered, n*events)
	}
	var dups int64
	for _, e := range c.engines {
		dups += e.Stats().DuplicateEvents
	}
	if dups != 0 {
		t.Fatalf("duplicate events %d, want 0 without loss/retransmission", dups)
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	const n, events = 40, 50
	// 15% datagram loss, no FEC at this layer: only retransmission can
	// recover. With 4 attempts across alternates, delivery should be ~full.
	with := newTestCluster(t, clusterOpts{n: n, seed: 6, loss: 0.15, retMax: 4})
	without := newTestCluster(t, clusterOpts{n: n, seed: 6, loss: 0.15, retMax: 1})
	for _, c := range []*testCluster{with, without} {
		for i := 0; i < events; i++ {
			c.publish(time.Duration(i)*20*time.Millisecond,
				wire.Event{ID: wire.PacketID(i), Payload: payload(300)})
		}
		c.net.Run(3 * time.Minute)
	}
	count := func(c *testCluster) (total int) {
		for _, got := range c.deliver {
			total += len(got)
		}
		return total
	}
	withCount, withoutCount := count(with), count(without)
	if withCount <= withoutCount {
		t.Fatalf("retransmission did not help: with=%d without=%d", withCount, withoutCount)
	}
	// Lost proposes shrink the effective fanout (~e^-(0.85·f) residual miss
	// rate); retransmission recovers lost requests/serves only.
	if float64(withCount) < 0.975*float64(n*events) {
		t.Fatalf("with retransmission delivered %d of %d", withCount, n*events)
	}
	var retx int64
	for _, e := range with.engines {
		retx += e.Stats().Retransmissions
	}
	if retx == 0 {
		t.Fatal("no retransmissions despite loss")
	}
}

func TestAdaptiveFanoutShiftsLoadToRichNodes(t *testing.T) {
	// 10 rich nodes (rel 4.0) and 30 poor ones (rel 0.25·30/30... chosen so
	// the mean is 1): rich nodes should send ~16x the proposes of poor ones
	// and consequently serve much more.
	const n = 40
	rel := make([]float64, n)
	for i := range rel {
		if i < 10 {
			rel[i] = 2.8
		} else {
			rel[i] = 0.4
		}
	}
	c := newTestCluster(t, clusterOpts{n: n, seed: 7, adaptive: true, rel: rel})
	for i := 0; i < 60; i++ {
		c.publish(time.Duration(i)*20*time.Millisecond,
			wire.Event{ID: wire.PacketID(i), Payload: payload(400)})
	}
	c.net.Run(2 * time.Minute)
	var richProposes, poorProposes, richServed, poorServed int64
	for i, e := range c.engines {
		if i == 0 {
			continue // source's immediate publishes skew its propose count
		}
		st := e.Stats()
		if i < 10 {
			richProposes += st.ProposesSent
			richServed += st.EventsServed
		} else {
			poorProposes += st.ProposesSent
			poorServed += st.EventsServed
		}
	}
	// Per-node averages (9 rich after skipping the source, 30 poor).
	richP, poorP := float64(richProposes)/9, float64(poorProposes)/30
	if richP < 4*poorP {
		t.Fatalf("rich nodes propose %.1f vs poor %.1f; want >= 4x", richP, poorP)
	}
	richS, poorS := float64(richServed)/9, float64(poorServed)/30
	if richS < 2*poorS {
		t.Fatalf("rich nodes served %.1f vs poor %.1f; want >= 2x", richS, poorS)
	}
}

func TestFanoutStochasticRoundingPreservesMean(t *testing.T) {
	dir := membership.NewDirectory(100)
	e := MustNew(Config{Fanout: 6.99, Sampler: dir.ViewFor(0)})
	net := simnet.New(simnet.Config{Seed: 8})
	net.AddNode(e, simnet.NodeConfig{})
	net.Run(time.Millisecond)
	var sum int
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		sum += e.fanout()
	}
	mean := float64(sum) / rounds
	if mean < 6.9 || mean > 7.08 {
		t.Fatalf("mean fanout %.3f, want ~6.99", mean)
	}
}

func TestFanoutClampedToMax(t *testing.T) {
	dir := membership.NewDirectory(100)
	e := MustNew(Config{Fanout: 7, Adaptive: true, Capabilities: fixedRel(1000),
		Sampler: dir.ViewFor(0)})
	net := simnet.New(simnet.Config{Seed: 9})
	net.AddNode(e, simnet.NodeConfig{})
	net.Run(time.Millisecond)
	for i := 0; i < 100; i++ {
		if f := e.fanout(); f > maxFanout {
			t.Fatalf("fanout %d exceeds maxFanout %d", f, maxFanout)
		}
	}
}

func TestFanoutFloorOne(t *testing.T) {
	dir := membership.NewDirectory(100)
	e := MustNew(Config{Fanout: 7, Adaptive: true, Capabilities: fixedRel(0.001),
		Sampler: dir.ViewFor(0)})
	net := simnet.New(simnet.Config{Seed: 10})
	net.AddNode(e, simnet.NodeConfig{})
	net.Run(time.Millisecond)
	for i := 0; i < 100; i++ {
		if f := e.fanout(); f < 1 {
			t.Fatalf("fanout %d below floor 1", f)
		}
	}
}

func TestServeBufferPruning(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 10, seed: 11})
	// Short buffer for the test.
	for _, e := range c.engines {
		e.serveBuffer = 2 * time.Second
	}
	c.publish(0, wire.Event{ID: 1, Payload: payload(100)})
	c.net.Run(30 * time.Second)
	for i, e := range c.engines {
		if e.BufferedEvents() != 0 {
			t.Fatalf("node %d still buffers %d events after prune horizon", i, e.BufferedEvents())
		}
		if got := e.lookupStream(0).packets.stateOf(1); got != pktDelivered {
			t.Fatalf("node %d: id 1 in state %d after prune, want pktDelivered", i, got)
		}
	}
}

// pruneTestEngine starts an engine with a 4 s serve buffer on a stub runtime
// whose clock reads start; its prune ticks are due at start+4 s+j·(1 s+1 ns).
func pruneTestEngine(start time.Duration) (*Engine, *stubRuntime) {
	rt := &stubRuntime{now: start, rng: rand.New(rand.NewSource(5))}
	e := MustNew(Config{Fanout: 2, Sampler: membership.NewDirectory(4).ViewFor(0)})
	e.serveBuffer = 4 * time.Second
	e.Start(rt)
	return e, rt
}

// receiveAt advances the stub's clock to at, then hands the engine an
// unrequested one-event Serve of id, which it delivers and buffers.
func receiveAt(e *Engine, rt *stubRuntime, id wire.PacketID, at time.Duration) {
	rt.advance(at)
	e.Receive(1, &wire.Serve{Events: []wire.Event{{ID: id, Payload: payload(10)}}})
}

// TestPruneEpochsMatchAgeRule: after every prune tick that fires on schedule,
// the engine buffers exactly the ids that the age rule "received at or after
// now−serveBuffer" keeps, computed from this test's own log of receive times.
// Ids arrive at random times over 320 prune periods, so the epochs wrap past
// pruneEpochs, some at the very instant a tick fired; the engine starts off
// the clock's zero.
func TestPruneEpochsMatchAgeRule(t *testing.T) {
	start := 777 * time.Millisecond
	e, rt := pruneTestEngine(start)
	rng := rand.New(rand.NewSource(9))
	recvAt := map[wire.PacketID]time.Duration{}
	for j := 0; j < 320; j++ {
		tick := start + e.serveBuffer + time.Duration(j)*e.prunePeriod
		at := make([]time.Duration, rng.Intn(6))
		for i := range at {
			at[i] = rt.now + time.Duration(rng.Int63n(int64(tick-rt.now)))
		}
		slices.Sort(at)
		for _, r := range at {
			id := wire.PacketID(len(recvAt))
			recvAt[id] = r
			receiveAt(e, rt, id, r)
		}
		rt.advance(tick)
		kept := 0
		for id, r := range recvAt {
			want := r >= tick-e.serveBuffer
			if got := e.lookupStream(0).packets.stateOf(id) >= pktBuffered; got != want {
				t.Fatalf("tick %d at %v: id %d received at %v buffered = %v, age rule says %v", j, tick, id, r, got, want)
			}
			if want {
				kept++
			}
		}
		if e.BufferedEvents() != kept {
			t.Fatalf("tick %d: BufferedEvents %d, age rule keeps %d", j, e.BufferedEvents(), kept)
		}
	}
	if len(recvAt) < 500 {
		t.Fatalf("only %d ids delivered", len(recvAt))
	}
}

// TestLatePruneTickReleasesOnlyItsEpochs pins the one way prune epochs differ
// from the age rule: a tick that fires late, here on a frozen node, releases
// only what it would have released on schedule. An id received between its
// scheduled and its actual cutoff, which the age rule would release, waits
// for the next tick.
func TestLatePruneTickReleasesOnlyItsEpochs(t *testing.T) {
	e, rt := pruneTestEngine(0)
	receiveAt(e, rt, 1, 500*time.Millisecond)  // epoch 1
	receiveAt(e, rt, 2, 1200*time.Millisecond) // epoch 2
	state := func(id wire.PacketID) uint8 { return e.lookupStream(0).packets.stateOf(id) }
	rt.advance(4500 * time.Millisecond) // tick 0, at 4 s, releases nothing
	if state(1) < pktBuffered || state(2) < pktBuffered {
		t.Fatalf("after tick 0: states %d and %d, want both buffered", state(1), state(2))
	}
	rt.frozenUntil = 5500 * time.Millisecond
	rt.advance(rt.frozenUntil) // tick 1, due at 5 s+1 ns, fires at 5.5 s
	// The age rule would release both: each was received before 5.5 s − 4 s.
	if state(1) != pktDelivered || state(2) < pktBuffered {
		t.Fatalf("after late tick 1: states %d and %d, want pruned and buffered", state(1), state(2))
	}
	rt.advance(6*time.Second + 2) // tick 2, on schedule
	if state(2) != pktDelivered || e.BufferedEvents() != 0 {
		t.Fatalf("after tick 2: id 2 in state %d, %d buffered; want pruned, 0", state(2), e.BufferedEvents())
	}
}

func TestPublishDuplicateIgnored(t *testing.T) {
	c := newTestCluster(t, clusterOpts{n: 5, seed: 12})
	c.publish(0, wire.Event{ID: 1, Payload: payload(10)})
	c.publish(time.Millisecond, wire.Event{ID: 1, Payload: payload(10)})
	c.net.Run(10 * time.Second)
	src := c.deliver[0]
	if len(src) != 1 {
		t.Fatalf("source delivered %v, want exactly one", src)
	}
}

func TestGiveUpAfterMaxAttempts(t *testing.T) {
	// One proposer that never serves: a node should give up after
	// RetMaxAttempts and count it.
	dir := membership.NewDirectory(2)
	net := simnet.New(simnet.Config{Seed: 13})
	e := MustNew(Config{Fanout: 1, RetMaxAttempts: 3, RetPeriod: 100 * time.Millisecond,
		Sampler: dir.ViewFor(0)})
	net.AddNode(e, simnet.NodeConfig{})
	// Node 1 proposes but drops requests (HandlerFunc ignoring everything).
	net.AddNode(silentHandler{}, simnet.NodeConfig{})
	net.Schedule(0, func() {
		e.Receive(1, &wire.Propose{IDs: []wire.PacketID{42}})
	})
	net.Run(5 * time.Second)
	st := e.Stats()
	if st.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1", st.GiveUps)
	}
	if e.PendingRequests() != 0 {
		t.Fatalf("pending requests = %d after give-up", e.PendingRequests())
	}
	if st.Retransmissions != 2 {
		t.Fatalf("retransmissions = %d, want 2 (attempts 2 and 3)", st.Retransmissions)
	}
	// A fresh propose must be able to re-trigger a request.
	net.Schedule(net.Now(), func() {
		e.Receive(1, &wire.Propose{IDs: []wire.PacketID{42}})
	})
	net.Run(net.Now() + 50*time.Millisecond)
	if e.PendingRequests() != 1 {
		t.Fatal("fresh propose after give-up did not re-request")
	}
}

type silentHandler struct{}

func (silentHandler) Start(env.Runtime)                 {}
func (silentHandler) Receive(wire.NodeID, wire.Message) {}
func (silentHandler) Stop()                             {}

func TestCrashMidStreamOthersStillDeliver(t *testing.T) {
	const n, events = 40, 80
	c := newTestCluster(t, clusterOpts{n: n, seed: 14, retMax: 4})
	for i := 0; i < events; i++ {
		c.publish(time.Duration(i)*20*time.Millisecond,
			wire.Event{ID: wire.PacketID(i), Payload: payload(300)})
	}
	// Crash a third of the nodes (not the source) at t=500ms and remove
	// them from views 200ms later (failure notification delay).
	dir := membership.NewDirectory(n)
	_ = dir
	for i := 1; i <= n/3; i++ {
		id := wire.NodeID(i)
		c.net.Schedule(500*time.Millisecond, func() { c.net.Crash(id) })
	}
	c.net.Run(3 * time.Minute)
	// Proposals to dead nodes are wasted (views are not updated in this
	// test), shrinking the effective fanout by a third; some packets held
	// only by crashed nodes are also gone. Expect degraded but substantial
	// delivery.
	for i := n/3 + 1; i < n; i++ {
		if len(c.deliver[i]) < events*85/100 {
			t.Fatalf("survivor %d delivered only %d of %d", i, len(c.deliver[i]), events)
		}
	}
}

func TestUnservableRequestsCounted(t *testing.T) {
	dir := membership.NewDirectory(2)
	net := simnet.New(simnet.Config{Seed: 15})
	e := MustNew(Config{Fanout: 1, Sampler: dir.ViewFor(0)})
	net.AddNode(e, simnet.NodeConfig{})
	net.Schedule(0, func() {
		e.Receive(1, &wire.Request{IDs: []wire.PacketID{7}})
	})
	net.Run(time.Second)
	if e.Stats().UnservableIDs != 1 {
		t.Fatalf("unservable = %d, want 1", e.Stats().UnservableIDs)
	}
}

// quarantiner is an Observer that records the proposals it sees and
// quarantines one peer.
type quarantiner struct {
	NopObserver
	bad  wire.NodeID
	seen []wire.NodeID
}

func (q *quarantiner) ObserveProposeSeen(from wire.NodeID, _ int, _ time.Duration) {
	q.seen = append(q.seen, from)
}
func (q *quarantiner) Quarantined(id wire.NodeID) bool { return id == q.bad }

// TestObserversQuarantineIfAny checks the observer list's two contracts:
// every observer sees every hook call, and a peer is quarantined when any one
// observer quarantines it.
func TestObserversQuarantineIfAny(t *testing.T) {
	a, b := &quarantiner{bad: 1}, &quarantiner{bad: 2}
	var requested []wire.NodeID
	rt := &stubRuntime{rng: rand.New(rand.NewSource(1))}
	e := MustNew(Config{Fanout: 2, Sampler: membership.NewDirectory(4).ViewFor(0),
		Observers: []Observer{a, b}})
	e.Start(rt)
	for from := wire.NodeID(1); from <= 3; from++ {
		rt.onSend = func(m wire.Message) {
			if _, ok := m.(*wire.Request); ok {
				requested = append(requested, from)
			}
		}
		e.Receive(from, &wire.Propose{IDs: []wire.PacketID{wire.PacketID(from)}})
	}
	for _, q := range []*quarantiner{a, b} {
		if len(q.seen) != 3 {
			t.Fatalf("observer saw proposals from %v, want all three peers", q.seen)
		}
	}
	if len(requested) != 1 || requested[0] != 3 {
		t.Fatalf("requested from %v, want only the peer neither observer quarantines (3)", requested)
	}
	if got := e.Stats().ProposesIgnored; got != 2 {
		t.Fatalf("ProposesIgnored = %d, want 2", got)
	}
}

// TestDisseminationRoundAllocatesNothing pins the steady-state message path
// over the simulator: once warm, rounds in which the source publishes a
// packet and a peer fetches it — propose, request, serve, deliver, and the
// peer's own propose back — allocate nothing. Every sender reuses one
// message and one slice per kind, and the simulator's copies come from its
// message pool.
func TestDisseminationRoundAllocatesNothing(t *testing.T) {
	const rounds = 100
	net := simnet.New(simnet.Config{Seed: 3, Latency: simnet.ConstantLatency(10 * time.Millisecond)})
	dir := membership.NewDirectory(2)
	engines := make([]*Engine, 2)
	for i := range engines {
		engines[i] = MustNew(Config{Fanout: 1, ExpectedPackets: 5 * rounds, Sampler: dir.ViewFor(wire.NodeID(i))})
		net.AddNode(engines[i], simnet.NodeConfig{})
	}
	net.Run(time.Second) // start both nodes
	data := payload(1316)
	next := wire.PacketID(0)
	round := func() {
		engines[0].Publish(wire.Event{ID: next, Payload: data})
		next++
		net.Run(net.Now() + 200*time.Millisecond)
	}
	// Warm-up: pools, scratch and the retransmit queue's rings at size.
	for range 3 * rounds {
		round()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range rounds {
			round()
		}
	})
	if allocs != 0 {
		t.Errorf("%d warm dissemination rounds allocated %v objects, want 0", rounds, allocs)
	}
	if st := engines[1].Stats(); st.EventsDelivered != int64(next) || st.RequestsSent != int64(next) {
		t.Fatalf("peer delivered %d and requested %d of %d packets: the rounds did not run", st.EventsDelivered, st.RequestsSent, next)
	}
}

// TestServedPayloadIsTheReceivedBytes: the serve buffer keeps a view of a
// delivered payload, not a copy, so a Serve answering a Request carries the
// very backing array the payload arrived in, and serving it allocates
// nothing.
func TestServedPayloadIsTheReceivedBytes(t *testing.T) {
	rt := &stubRuntime{rng: rand.New(rand.NewSource(1))}
	e := MustNew(Config{Fanout: 1, Sampler: membership.NewDirectory(3).ViewFor(0)})
	e.Start(rt)
	received := payload(1316)
	e.Receive(1, &wire.Serve{Events: []wire.Event{{ID: 4, Stamp: 9, Payload: received}}})
	var served []byte
	rt.onSend = func(m wire.Message) {
		if s, ok := m.(*wire.Serve); ok && len(s.Events) == 1 {
			served = s.Events[0].Payload
		}
	}
	req := &wire.Request{IDs: []wire.PacketID{4}}
	e.Receive(2, req)
	if len(served) != len(received) || unsafe.SliceData(served) != unsafe.SliceData(received) {
		t.Fatalf("served %d bytes at %p, received %d at %p: want the same backing array",
			len(served), unsafe.SliceData(served), len(received), unsafe.SliceData(received))
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Receive(2, req) }); allocs != 0 {
		t.Fatalf("serving a buffered payload allocated %v objects, want 0", allocs)
	}
}
