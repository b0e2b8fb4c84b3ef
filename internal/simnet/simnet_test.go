package simnet

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// recorder is a Handler that records deliveries.
type recorder struct {
	rt      env.Runtime
	got     []recordedMsg
	started bool
	stopped bool
	onStart func(rt env.Runtime)
	onRecv  func(from wire.NodeID, m wire.Message)
}

// recordedMsg keeps the sender and arrival time only: a received message
// is valid only until Receive returns.
type recordedMsg struct {
	from wire.NodeID
	at   time.Duration
}

func (r *recorder) Start(rt env.Runtime) {
	r.rt = rt
	r.started = true
	if r.onStart != nil {
		r.onStart(rt)
	}
}

func (r *recorder) Receive(from wire.NodeID, m wire.Message) {
	r.got = append(r.got, recordedMsg{from: from, at: r.rt.Now()})
	if r.onRecv != nil {
		r.onRecv(from, m)
	}
}

func (r *recorder) Stop() { r.stopped = true }

func ping() wire.Message { return &wire.Propose{IDs: []wire.PacketID{1}} }

func TestStartAndBasicDelivery(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstantLatency(10 * time.Millisecond)})
	a := &recorder{}
	b := &recorder{}
	ida := net.AddNode(a, NodeConfig{})
	idb := net.AddNode(b, NodeConfig{})
	net.Schedule(0, func() {
		net.nodes[ida].handler.(*recorder).rt.Send(idb, ping())
	})
	net.Run(time.Second)
	if !a.started || !b.started {
		t.Fatal("handlers not started")
	}
	if len(b.got) != 1 {
		t.Fatalf("b received %d messages, want 1", len(b.got))
	}
	if b.got[0].from != ida {
		t.Fatalf("from = %d, want %d", b.got[0].from, ida)
	}
	if b.got[0].at != 10*time.Millisecond {
		t.Fatalf("delivery at %v, want 10ms", b.got[0].at)
	}
}

func TestUplinkSerializationDelay(t *testing.T) {
	// 1316+28 bytes at 1 Mbps should take (1344*8)/1e6 s = 10.752 ms, plus
	// zero latency.
	net := New(Config{Seed: 1})
	payload := make([]byte, 1316-18-3) // serve msg with one event sized to 1316 total
	msg := &wire.Serve{Events: []wire.Event{{ID: 1, Payload: payload}}}
	if msg.WireSize() != 1316 {
		t.Fatalf("test message is %d bytes, want 1316", msg.WireSize())
	}
	b := &recorder{}
	var a *recorder
	a = &recorder{onStart: func(rt env.Runtime) {
		rt.Send(1, msg)
		rt.Send(1, msg) // second message queues behind the first
	}}
	net.AddNode(a, NodeConfig{UploadBps: 1_000_000})
	net.AddNode(b, NodeConfig{})
	net.Run(time.Second)
	if len(b.got) != 2 {
		t.Fatalf("received %d, want 2", len(b.got))
	}
	ser := time.Duration((1316 + 28) * 8 * int64(time.Second) / 1_000_000)
	if b.got[0].at != ser {
		t.Fatalf("first delivery at %v, want %v", b.got[0].at, ser)
	}
	if b.got[1].at != 2*ser {
		t.Fatalf("second delivery at %v, want %v (FIFO queueing)", b.got[1].at, 2*ser)
	}
}

func TestUnconstrainedUplinkHasNoSerializationDelay(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstantLatency(time.Millisecond)})
	b := &recorder{}
	a := &recorder{onStart: func(rt env.Runtime) {
		for i := 0; i < 10; i++ {
			rt.Send(1, ping())
		}
	}}
	net.AddNode(a, NodeConfig{UploadBps: 0})
	net.AddNode(b, NodeConfig{})
	net.Run(time.Second)
	if len(b.got) != 10 {
		t.Fatalf("received %d, want 10", len(b.got))
	}
	for _, g := range b.got {
		if g.at != time.Millisecond {
			t.Fatalf("delivery at %v, want 1ms for all", g.at)
		}
	}
}

// TestNewRefusesLossRateOutsideUnitInterval: New panics on a loss rate
// outside [0, 1), NaN included.
func TestNewRefusesLossRateOutsideUnitInterval(t *testing.T) {
	for _, rate := range []float64{math.NaN(), -0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss rate %v accepted", rate)
				}
			}()
			New(Config{LossRate: rate})
		}()
	}
}

func TestLossRate(t *testing.T) {
	net := New(Config{Seed: 42, LossRate: 0.5})
	b := &recorder{}
	const sent = 2000
	a := &recorder{onStart: func(rt env.Runtime) {
		for i := 0; i < sent; i++ {
			rt.Send(1, ping())
		}
	}}
	net.AddNode(a, NodeConfig{})
	net.AddNode(b, NodeConfig{})
	net.Run(time.Second)
	got := len(b.got)
	if got < sent*4/10 || got > sent*6/10 {
		t.Fatalf("with 50%% loss, received %d of %d; expected ~half", got, sent)
	}
	st := net.Stats()
	if st.MsgsLost+st.MsgsDelivered != sent {
		t.Fatalf("lost(%d)+delivered(%d) != sent(%d)", st.MsgsLost, st.MsgsDelivered, sent)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		net := New(Config{Seed: 7, LossRate: 0.1,
			Latency: NewPairwiseLatency(7, 5*time.Millisecond, 50*time.Millisecond, 2*time.Millisecond)})
		b := &recorder{}
		a := &recorder{onStart: func(rt env.Runtime) {
			for i := 0; i < 100; i++ {
				rt.Send(1, ping())
			}
		}}
		net.AddNode(a, NodeConfig{UploadBps: 500_000})
		net.AddNode(b, NodeConfig{})
		net.Run(time.Minute)
		times := make([]time.Duration, len(b.got))
		for i, g := range b.got {
			times[i] = g.at
		}
		return times
	}
	// PairwiseLatency seeds maphash per construction, so per-pair bases vary
	// between runs; determinism must come from everything else. Use two runs
	// with the same explicit latency to assert full reproducibility.
	runFixed := func() []time.Duration {
		net := New(Config{Seed: 7, LossRate: 0.1, Latency: ConstantLatency(3 * time.Millisecond)})
		b := &recorder{}
		a := &recorder{onStart: func(rt env.Runtime) {
			for i := 0; i < 100; i++ {
				rt.Send(1, ping())
			}
		}}
		net.AddNode(a, NodeConfig{UploadBps: 500_000})
		net.AddNode(b, NodeConfig{})
		net.Run(time.Minute)
		times := make([]time.Duration, len(b.got))
		for i, g := range b.got {
			times[i] = g.at
		}
		return times
	}
	t1, t2 := runFixed(), runFixed()
	if len(t1) != len(t2) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("non-deterministic delivery time at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
	_ = run // the jittered variant is exercised elsewhere
}

// TestTimerFiresAndStops: timers fire once each, in due order, a negative
// delay counting as zero; there is no cancel, so what stops a node's pending
// timers is the node stopping (a crash discards them).
func TestTimerFiresAndStops(t *testing.T) {
	net := New(Config{Seed: 1})
	var fired []time.Duration
	a := &recorder{onStart: func(rt env.Runtime) {
		note := func() { fired = append(fired, rt.Now()) }
		rt.AfterFunc(10*time.Millisecond, note)
		rt.AfterFunc(-time.Millisecond, note)
		rt.AfterFunc(20*time.Millisecond, note)
	}}
	id := net.AddNode(a, NodeConfig{})
	net.Schedule(15*time.Millisecond, func() { net.Crash(id) })
	net.Run(time.Second)
	if want := []time.Duration{0, 10 * time.Millisecond}; !slices.Equal(fired, want) {
		t.Fatalf("timers fired at %v, want %v", fired, want)
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	net := New(Config{Seed: 1})
	var ticks []time.Duration
	var ticker *env.Ticker
	a := &recorder{onStart: func(rt env.Runtime) {
		ticker = env.NewTicker(rt, 5*time.Millisecond, 10*time.Millisecond, func() {
			ticks = append(ticks, rt.Now())
		})
	}}
	net.AddNode(a, NodeConfig{})
	net.Run(46 * time.Millisecond)
	// ticks at 5, 15, 25, 35, 45 ms
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	ticker.Stop()
	net.Run(200 * time.Millisecond)
	if len(ticks) != 5 {
		t.Fatalf("ticker fired after Stop: %v", ticks)
	}
}

func TestCrashStopsHandlerAndDropsQueuedMessages(t *testing.T) {
	// Node a (slow uplink) sends 5 large messages at t=0; we crash it at a
	// time when only some have left the uplink. The rest must be lost.
	net := New(Config{Seed: 1})
	payload := make([]byte, 1316-18-3)
	msg := &wire.Serve{Events: []wire.Event{{ID: 1, Payload: payload}}}
	b := &recorder{}
	a := &recorder{onStart: func(rt env.Runtime) {
		for i := 0; i < 5; i++ {
			rt.Send(1, msg)
		}
	}}
	ida := net.AddNode(a, NodeConfig{UploadBps: 1_000_000}) // 10.752ms per msg
	net.AddNode(b, NodeConfig{})
	net.Schedule(25*time.Millisecond, func() { net.Crash(ida) }) // 2 msgs out, 3 queued
	net.RunUntilIdle()
	if len(b.got) != 2 {
		t.Fatalf("received %d messages, want 2 (rest lost in crashed uplink)", len(b.got))
	}
	if !a.stopped {
		t.Fatal("crashed node's handler not stopped")
	}
	if !net.NodeStats(ida).Crashed {
		t.Fatal("crash not recorded in stats")
	}
	if net.Alive(ida) {
		t.Fatal("crashed node still alive")
	}
}

func TestCrashedNodeReceivesNothingAndTimersDie(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstantLatency(5 * time.Millisecond)})
	var lateTimer bool
	b := &recorder{onStart: func(rt env.Runtime) {
		rt.AfterFunc(50*time.Millisecond, func() { lateTimer = true })
	}}
	a := &recorder{}
	ida := net.AddNode(a, NodeConfig{})
	idb := net.AddNode(b, NodeConfig{})
	net.Schedule(10*time.Millisecond, func() { net.Crash(idb) })
	net.Schedule(20*time.Millisecond, func() {
		net.nodes[ida].handler.(*recorder).rt.Send(idb, ping())
	})
	net.RunUntilIdle()
	if len(b.got) != 0 {
		t.Fatal("dead node received a message")
	}
	if lateTimer {
		t.Fatal("dead node's timer fired")
	}
	if net.Stats().MsgsDeadDrop == 0 {
		t.Fatal("dead drop not counted")
	}
}

func TestFreezeDefersDeliveriesAndTimers(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstantLatency(time.Millisecond)})
	var timerAt time.Duration
	b := &recorder{onStart: func(rt env.Runtime) {
		rt.AfterFunc(10*time.Millisecond, func() { timerAt = rt.Now() })
	}}
	a := &recorder{}
	ida := net.AddNode(a, NodeConfig{})
	idb := net.AddNode(b, NodeConfig{})
	net.Schedule(5*time.Millisecond, func() { net.Freeze(idb, 100*time.Millisecond) })
	net.Schedule(6*time.Millisecond, func() {
		net.nodes[ida].handler.(*recorder).rt.Send(idb, ping())
	})
	net.RunUntilIdle()
	if len(b.got) != 1 {
		t.Fatalf("frozen node lost the message: got %d", len(b.got))
	}
	if b.got[0].at != 105*time.Millisecond {
		t.Fatalf("delivery at %v, want 105ms (deferred to unfreeze)", b.got[0].at)
	}
	if timerAt != 105*time.Millisecond {
		t.Fatalf("timer at %v, want 105ms (deferred to unfreeze)", timerAt)
	}
}

func TestTailDropWhenQueueBounded(t *testing.T) {
	net := New(Config{Seed: 1, MaxQueueDelay: 20 * time.Millisecond})
	payload := make([]byte, 1316-18-3)
	msg := &wire.Serve{Events: []wire.Event{{ID: 1, Payload: payload}}}
	b := &recorder{}
	a := &recorder{onStart: func(rt env.Runtime) {
		for i := 0; i < 100; i++ { // ~1s of serialization at 1 Mbps
			rt.Send(1, msg)
		}
	}}
	net.AddNode(a, NodeConfig{UploadBps: 1_000_000})
	net.AddNode(b, NodeConfig{})
	net.RunUntilIdle()
	st := net.Stats()
	if st.MsgsTailDrop == 0 {
		t.Fatal("expected tail drops with bounded queue")
	}
	if len(b.got)+int(st.MsgsTailDrop) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", len(b.got), st.MsgsTailDrop)
	}
	// ~20ms of queue at 10.752 ms/msg means only the first 2-3 get through.
	if len(b.got) > 5 {
		t.Fatalf("bounded queue delivered %d messages, expected <= 5", len(b.got))
	}
}

func TestPairwiseLatencyStableAndSymmetric(t *testing.T) {
	lm := NewPairwiseLatency(42, 10*time.Millisecond, 100*time.Millisecond, 0)
	ab1 := lm.Latency(1, 2, 0)
	ab2 := lm.Latency(1, 2, 1)
	ba := lm.Latency(2, 1, 7)
	if ab1 != ab2 {
		t.Fatalf("latency not stable: %v vs %v", ab1, ab2)
	}
	if ab1 != ba {
		t.Fatalf("latency not symmetric: %v vs %v", ab1, ba)
	}
	if ab1 < 10*time.Millisecond || ab1 > 100*time.Millisecond {
		t.Fatalf("latency %v outside [10ms, 100ms]", ab1)
	}
	if got := lm.MinLatency(); got != 10*time.Millisecond {
		t.Fatalf("MinLatency = %v, want 10ms", got)
	}
	// Different pairs should (almost surely) differ.
	distinct := map[time.Duration]bool{}
	for i := wire.NodeID(0); i < 20; i++ {
		distinct[lm.Latency(i, i+1, 0)] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("suspiciously uniform pairwise latencies: %d distinct of 20", len(distinct))
	}

	// With jitter the latency must vary per stamp but stay within
	// [base, base+jitter], so MinLatency remains a sound lookahead bound.
	jm := NewPairwiseLatency(42, 10*time.Millisecond, 100*time.Millisecond, 2*time.Millisecond)
	base := lm.Latency(1, 2, 0)
	seen := map[time.Duration]bool{}
	for stamp := uint64(0); stamp < 50; stamp++ {
		d := jm.Latency(1, 2, stamp)
		if d < base || d > base+2*time.Millisecond {
			t.Fatalf("jittered latency %v outside [%v, %v]", d, base, base+2*time.Millisecond)
		}
		if d != jm.Latency(1, 2, stamp) {
			t.Fatal("jittered latency not a pure function of (from, to, stamp)")
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced no variation across stamps")
	}
}

// TestExtraTimersMoveNoMessage: a message's latency jitter is keyed by its
// sender's message count, not by the event sequence its timers share, so a
// node that arms extra timers that do nothing delivers every message at the
// same instant, at one shard and at two.
func TestExtraTimersMoveNoMessage(t *testing.T) {
	type arrival struct {
		to, from wire.NodeID
		at       time.Duration
	}
	run := func(shards, noops int) []arrival {
		net := New(Config{Seed: 9, Shards: shards,
			Latency: NewPairwiseLatency(9, 10*time.Millisecond, 40*time.Millisecond, 5*time.Millisecond)})
		rs := make([]*recorder, 3)
		for i := range rs {
			rs[i] = &recorder{}
		}
		rs[1].onRecv = func(from wire.NodeID, _ wire.Message) {
			rs[1].rt.Send(from, ping()) // node 1's replies carry jitter too
		}
		rs[0].onStart = func(rt env.Runtime) {
			left := 100
			var tick func()
			tick = func() {
				for i := range noops + left%3 {
					rt.AfterFunc(time.Duration(i)*time.Millisecond, func() {})
				}
				rt.Send(1, ping())
				rt.Send(2, ping())
				if left--; left > 0 {
					rt.AfterFunc(2*time.Millisecond, tick)
				}
			}
			rt.AfterFunc(0, tick)
		}
		for _, r := range rs {
			net.AddNode(r, NodeConfig{UploadBps: 200_000})
		}
		net.Run(5 * time.Second)
		// Each recorder is written only by its own node's shard.
		var got []arrival
		for i, r := range rs {
			for _, m := range r.got {
				got = append(got, arrival{wire.NodeID(i), m.from, m.at})
			}
		}
		slices.SortFunc(got, func(a, b arrival) int {
			if a.to != b.to {
				return int(a.to) - int(b.to)
			}
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return int(a.from) - int(b.from)
		})
		return got
	}
	want := run(1, 0)
	if len(want) != 300 {
		t.Fatalf("%d deliveries, want 300", len(want))
	}
	for _, shards := range []int{1, 2} {
		for _, noops := range []int{1, 4} {
			if got := run(shards, noops); !slices.Equal(got, want) {
				t.Fatalf("%d shards, %d extra timers a tick: deliveries moved", shards, noops)
			}
		}
	}
}

func TestQueueBacklogVisible(t *testing.T) {
	net := New(Config{Seed: 1})
	payload := make([]byte, 1316-18-3)
	msg := &wire.Serve{Events: []wire.Event{{ID: 1, Payload: payload}}}
	a := &recorder{onStart: func(rt env.Runtime) {
		for i := 0; i < 10; i++ {
			rt.Send(1, msg)
		}
	}}
	ida := net.AddNode(a, NodeConfig{UploadBps: 1_000_000})
	net.AddNode(&recorder{}, NodeConfig{})
	net.Schedule(time.Millisecond, func() {
		if net.QueueBacklog(ida) <= 0 {
			t.Error("expected nonzero uplink backlog")
		}
	})
	net.RunUntilIdle()
	if net.QueueBacklog(ida) != 0 {
		t.Fatal("backlog should drain to zero")
	}
}

func TestSendToSelfDelivers(t *testing.T) {
	net := New(Config{Seed: 1})
	var self *recorder
	self = &recorder{onStart: func(rt env.Runtime) {
		rt.Send(rt.ID(), ping())
	}}
	net.AddNode(self, NodeConfig{})
	net.RunUntilIdle()
	if len(self.got) != 1 {
		t.Fatalf("self-send delivered %d, want 1", len(self.got))
	}
}

func TestSendToUnknownNodeDrops(t *testing.T) {
	net := New(Config{Seed: 1})
	a := &recorder{onStart: func(rt env.Runtime) {
		rt.Send(99, ping())
	}}
	net.AddNode(a, NodeConfig{})
	net.RunUntilIdle()
	if net.Stats().MsgsDeadDrop != 1 {
		t.Fatalf("dead drop = %d, want 1", net.Stats().MsgsDeadDrop)
	}
}

func TestNodeStatsCounters(t *testing.T) {
	net := New(Config{Seed: 1})
	b := &recorder{}
	a := &recorder{onStart: func(rt env.Runtime) {
		rt.Send(1, ping())
		rt.Send(1, &wire.Request{IDs: []wire.PacketID{1}})
	}}
	ida := net.AddNode(a, NodeConfig{})
	idb := net.AddNode(b, NodeConfig{})
	net.RunUntilIdle()
	sa := net.NodeStats(ida)
	sb := net.NodeStats(idb)
	if sa.SentMsgs != 2 || sb.RecvMsgs != 2 {
		t.Fatalf("sent=%d recv=%d, want 2/2", sa.SentMsgs, sb.RecvMsgs)
	}
	wantBytes := int64(ping().WireSize() + wire.UDPOverheadBytes +
		(&wire.Request{IDs: []wire.PacketID{1}}).WireSize() + wire.UDPOverheadBytes)
	if sa.SentBytes != wantBytes {
		t.Fatalf("sent bytes = %d, want %d", sa.SentBytes, wantBytes)
	}
	if sa.SentByKind[wire.KindPropose] == 0 || sa.SentByKind[wire.KindRequest] == 0 {
		t.Fatal("per-kind byte accounting missing")
	}
}

func TestScheduleOrderingDeterministic(t *testing.T) {
	net := New(Config{Seed: 1})
	var order []int
	net.AddNode(&recorder{}, NodeConfig{})
	for i := 0; i < 10; i++ {
		i := i
		net.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	net.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestMuxRouting(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstantLatency(0)})
	var proposes, aggregates int
	mux := env.NewMux()
	mux.Register(env.HandlerFunc(func(wire.NodeID, wire.Message) { proposes++ }), wire.KindPropose)
	mux.Register(env.HandlerFunc(func(wire.NodeID, wire.Message) { aggregates++ }), wire.KindAggregate)
	idm := net.AddNode(mux, NodeConfig{})
	a := &recorder{onStart: func(rt env.Runtime) {
		rt.Send(idm, ping())
		rt.Send(idm, &wire.Aggregate{})
		rt.Send(idm, &wire.Request{}) // unrouted: dropped
	}}
	net.AddNode(a, NodeConfig{})
	net.RunUntilIdle()
	if proposes != 1 || aggregates != 1 {
		t.Fatalf("mux routed proposes=%d aggregates=%d, want 1/1", proposes, aggregates)
	}
}

func BenchmarkEventLoopThroughput(b *testing.B) {
	net := New(Config{Seed: 1, Latency: ConstantLatency(time.Millisecond)})
	idb := net.AddNode(&recorder{}, NodeConfig{})
	var rt env.Runtime
	a := &recorder{onStart: func(r env.Runtime) { rt = r }}
	net.AddNode(a, NodeConfig{})
	net.Run(0)
	msg := ping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Send(idb, msg)
		if i%1024 == 0 {
			net.Run(net.Now() + 10*time.Millisecond)
		}
	}
	net.RunUntilIdle()
}
