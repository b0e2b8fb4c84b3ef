package simnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// TestCrossShardExchangeRace is the race detector's view of the sharded run
// loop: a TTL-forwarding storm across a 4-shard network, so every window has
// several shards live at once, every shard's outbox carries traffic to every
// other shard, and handlers draw from their rngs and re-arm timers
// concurrently. Every node sends from one scratch Propose, stamped (hops,
// sender, per-sender seq) and overwritten right after Send: the simulator
// must carry copies of its own, which migrate from the sending shard's
// message pool to the receiving shard's as they are delivered. The test
// asserts behavior too — every message arrives intact, exactly once, and the
// storm terminates with exactly the count the TTL geometry implies — but its
// real job is running under -race (make race-detect), where any cross-shard
// access outside the documented barrier discipline is a failure even if the
// numbers come out right.
func TestCrossShardExchangeRace(t *testing.T) {
	const (
		nodes = 32
		ttl   = 4
		fan   = 3
		junk  = wire.PacketID(0xdeadbeef)
	)
	net := New(Config{
		Seed:    11,
		Latency: NewPairwiseLatency(11, 5*time.Millisecond, 20*time.Millisecond, time.Millisecond),
		Shards:  4,
	})
	if got := net.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	// Each node's row is touched only on its own shard during the run.
	type stamp struct{ sender, seq, hops wire.PacketID }
	type row struct {
		scratch wire.Propose
		sent    []wire.PacketID // hops of each seq sent
		got     []stamp
		bad     []string
	}
	rows := make([]row, nodes)
	forward := func(rt env.Runtime, hops wire.PacketID) {
		r := &rows[rt.ID()]
		for i := 0; i < fan; i++ {
			to := wire.NodeID(rt.Rand().Intn(nodes))
			// A short per-hop timer keeps the timer pool churning alongside
			// the delivery path.
			rt.AfterFunc(time.Duration(rt.Rand().Intn(3))*time.Millisecond, func() {
				seq := wire.PacketID(len(r.sent))
				r.sent = append(r.sent, hops)
				r.scratch.IDs = append(r.scratch.IDs[:0], hops, wire.PacketID(rt.ID()), seq)
				rt.Send(to, &r.scratch)
				for j := range r.scratch.IDs {
					r.scratch.IDs[j] = junk
				}
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
			onRecv: func(from wire.NodeID, m wire.Message) {
				r := &rows[id]
				ids := m.(*wire.Propose).IDs
				if len(ids) != 3 || ids[1] != wire.PacketID(from) || ids[0] < 1 || ids[0] > ttl {
					r.bad = append(r.bad, fmt.Sprintf("node %d got %v from %d", id, ids, from))
					return
				}
				r.got = append(r.got, stamp{sender: ids[1], seq: ids[2], hops: ids[0]})
				if ids[0] > 1 {
					forward(net.nodes[id].handler.(*recorder).rt, ids[0]-1)
				}
			},
		}, NodeConfig{UploadBps: 10_000_000})
	}
	net.RunUntilIdle()

	// Every (sender, seq) sent arrives once, with the hops it was sent with.
	seen := map[stamp]int{}
	total := 0
	for _, r := range rows {
		for _, b := range r.bad {
			t.Error(b)
		}
		for _, s := range r.got {
			seen[s]++
			total++
		}
	}
	for sender, r := range rows {
		for seq, hops := range r.sent {
			if s := (stamp{wire.PacketID(sender), wire.PacketID(seq), hops}); seen[s] != 1 {
				t.Errorf("node %d's message %d (hops %d) arrived %d times", sender, seq, hops, seen[s])
			}
		}
	}
	// Each of the ttl generations multiplies the message population by fan:
	// 3 + 9 + 27 + 81 sends; none may be lost (no loss model, no crashes).
	want := 0
	for g, gen := 1, fan; g <= ttl; g, gen = g+1, gen*fan {
		want += gen
	}
	if total != want {
		t.Fatalf("storm delivered %d messages, want %d", total, want)
	}
	st := net.Stats()
	if st.MsgsDelivered != int64(want) || st.MsgsLost != 0 || st.MsgsDeadDrop != 0 {
		t.Fatalf("stats %+v inconsistent with a lossless storm of %d", st, want)
	}
}
