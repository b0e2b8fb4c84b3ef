package simnet

import (
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// TestCrossShardExchangeRace is the race detector's view of the sharded run
// loop: a TTL-forwarding storm across a 4-shard network, so every window has
// several shards live at once, every shard's outbox carries traffic to every
// other shard, and handlers draw from their rngs and re-arm timers
// concurrently. The test asserts behavior too — storm fan-out must
// terminate with exactly the event count the TTL geometry implies — but its
// real job is running under -race (make race / make check), where any
// cross-shard access outside the documented barrier discipline is a failure
// even if the numbers come out right.
func TestCrossShardExchangeRace(t *testing.T) {
	const (
		nodes = 32
		ttl   = 4
		fan   = 3
	)
	net := New(Config{
		Seed:    11,
		Latency: NewPairwiseLatency(11, 5*time.Millisecond, 20*time.Millisecond, time.Millisecond),
		Shards:  4,
	})
	if got := net.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	received := make([]int, nodes)
	forward := func(rt env.Runtime, hops wire.PacketID) {
		for i := 0; i < fan; i++ {
			to := wire.NodeID(rt.Rand().Intn(nodes))
			// A short per-hop timer keeps the timer pool churning alongside
			// the delivery path.
			m := &wire.Propose{IDs: []wire.PacketID{hops}}
			rt.AfterFunc(time.Duration(rt.Rand().Intn(3))*time.Millisecond, func() {
				rt.Send(to, m)
			})
		}
	}
	for i := 0; i < nodes; i++ {
		id := wire.NodeID(i)
		net.AddNode(&recorder{
			onStart: func(rt env.Runtime) {
				if id == 0 {
					forward(rt, ttl)
				}
			},
			onRecv: func(_ wire.NodeID, m wire.Message) {
				received[id]++
				if hops := m.(*wire.Propose).IDs[0]; hops > 1 {
					forward(net.nodes[id].handler.(*recorder).rt, hops-1)
				}
			},
		}, NodeConfig{UploadBps: 10_000_000})
	}
	net.RunUntilIdle()

	// Each of the ttl generations multiplies the message population by fan:
	// 3 + 9 + 27 + 81 sends; none may be lost (no loss model, no crashes).
	want := 0
	for g, gen := 1, fan; g <= ttl; g, gen = g+1, gen*fan {
		want += gen
	}
	total := 0
	for _, c := range received {
		total += c
	}
	if total != want {
		t.Fatalf("storm delivered %d messages, want %d", total, want)
	}
	st := net.Stats()
	if st.MsgsDelivered != int64(want) || st.MsgsLost != 0 || st.MsgsDeadDrop != 0 {
		t.Fatalf("stats %+v inconsistent with a lossless storm of %d", st, want)
	}
}
