package udpnet

import (
	"net"
	"testing"
	"time"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/netem"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestNetemDropsOutbound pins the interceptor mechanics: a drop-everything
// model on the sender silences it, and the sender's counter records it.
func TestNetemDropsOutbound(t *testing.T) {
	recv := &collector{}
	b, err := NewNode(1, recv, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewNode(0, &sendOnStart{to: 1}, Config{Seed: 1, Netem: netem.Bernoulli{P: 0.999999999}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peers := map[wire.NodeID]*net.UDPAddr{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		dropped, _ := a.NetemCounters()
		return dropped >= 1
	})
	if recv.count() != 0 {
		t.Fatalf("dropped datagram was delivered (%d messages)", recv.count())
	}
}

// TestNetemDelayDefersDelivery pins the delay path: a fixed 200 ms model on
// the sender defers delivery without losing the datagram.
func TestNetemDelayDefersDelivery(t *testing.T) {
	recv := &collector{}
	b, err := NewNode(1, recv, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewNode(0, &sendOnStart{to: 1}, Config{Seed: 3, Netem: netem.FixedDelay(200 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peers := map[wire.NodeID]*net.UDPAddr{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return recv.count() >= 1 })
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 200ms of netem delay", elapsed)
	}
	if _, delayed := a.NetemCounters(); delayed != 1 {
		t.Fatalf("delayed = %d, want 1", delayed)
	}
}

// TestSharedEpochAlignsSchedules pins the staggered-start story: nodes
// given one shared Epoch agree on Runtime.Now (and therefore on when
// schedule-driven netem windows open) no matter when each process started.
func TestSharedEpochAlignsSchedules(t *testing.T) {
	epoch := time.Now().Add(-42 * time.Second)
	nowCh := make(chan time.Duration, 2)
	mk := func(id wire.NodeID) *Node {
		n, err := NewNode(id, &nowOnStart{ch: nowCh}, Config{Seed: int64(id), Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(0)
	defer a.Close()
	time.Sleep(50 * time.Millisecond) // a staggered start
	b := mk(1)
	defer b.Close()
	na, nb := <-nowCh, <-nowCh
	if na < 42*time.Second || nb < 42*time.Second {
		t.Fatalf("Now() ignored the shared epoch: %v / %v", na, nb)
	}
	if diff := nb - na; diff < 0 || diff > 5*time.Second {
		t.Fatalf("staggered nodes disagree on the epoch clock by %v", diff)
	}
}

type nowOnStart struct{ ch chan time.Duration }

func (h *nowOnStart) Start(rt env.Runtime)              { h.ch <- rt.Now() }
func (h *nowOnStart) Receive(wire.NodeID, wire.Message) {}
func (h *nowOnStart) Stop()                             {}

// TestStreamingUnderAdverseNetem runs the full stack over loopback sockets
// while every node's outbound path suffers Gilbert-Elliott bursty loss
// (~11% average, arriving in per-sender bursts) and a partition isolates
// three nodes shortly after the stream airs, healing ~0.75 s later.
// Retransmission and FEC must still complete the stream — the same recovery
// story the paper tells for PlanetLab, now reproducible on an emulated WAN.
func TestStreamingUnderAdverseNetem(t *testing.T) {
	const nodes = 10
	geom := stream.Geometry{RateBps: 200_000, PacketBytes: 200, DataPerWindow: 10, ParityPerWindow: 2}
	const windows = 6

	adverse := netem.Config{
		Name: "test-adverse",
		GE:   &netem.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossGood: 0.01, LossBad: 0.5},
		Partitions: []netem.PartitionSpec{{
			From:   850 * time.Millisecond,
			Until:  1600 * time.Millisecond,
			Groups: [][]wire.NodeID{{7, 8, 9}},
		}},
	}

	dir := membership.NewDirectory(nodes)
	receivers := make([]*stream.Receiver, nodes)
	udpNodes := make([]*Node, nodes)
	engines := make([]*netem.Engine, nodes)
	addrs := make(map[wire.NodeID]*net.UDPAddr, nodes)

	for i := 0; i < nodes; i++ {
		id := wire.NodeID(i)
		rcv, err := stream.NewReceiver(geom, windows, true)
		if err != nil {
			t.Fatal(err)
		}
		receivers[i] = rcv
		eng, err := core.New(core.Config{
			Fanout:         5,
			GossipPeriod:   30 * time.Millisecond,
			RetPeriod:      250 * time.Millisecond,
			RetMaxAttempts: 12,
			Sampler:        dir.ViewFor(id),
			OnDeliver:      rcv.OnDeliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := env.NewMux()
		mux.Register(eng, wire.KindPropose, wire.KindRequest, wire.KindServe)
		// The aggregation protocol keeps background traffic flowing across
		// the split for its whole duration, so the partition provably bites.
		est := aggregation.NewEstimator(aggregation.Config{
			SelfCapKbps: 1000,
			Sampler:     dir.ViewFor(id),
		})
		mux.Register(est, wire.KindAggregate)
		if i == 0 {
			src, err := stream.NewSource(stream.SourceConfig{
				Geometry:  geom,
				Windows:   windows,
				StartAt:   300 * time.Millisecond,
				Publisher: eng,
			})
			if err != nil {
				t.Fatal(err)
			}
			mux.Register(src)
		}
		// Every node materializes the same adverse profile from the same
		// seed — the shared lab conditions, with identical partition groups
		// — but owns its instance (models are stateful, and each node only
		// steps its own outbound chains).
		if engines[i], err = adverse.Build(nodes, 77, 0, nil); err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(id, mux, Config{Seed: int64(100 + i), Netem: engines[i]})
		if err != nil {
			t.Fatal(err)
		}
		udpNodes[i] = n
		addrs[id] = n.Addr()
	}
	defer func() {
		for _, n := range udpNodes {
			n.Close()
		}
	}()
	for _, n := range udpNodes {
		n.SetPeers(addrs)
	}
	for _, n := range udpNodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}

	// The stream must complete despite bursts and the split: as in the
	// clean-network loopback test, assert strong system-wide delivery (the
	// residual per-(node,packet) miss rate of gossip is ~e^-f).
	total := geom.TotalPackets(windows)
	waitFor(t, 30*time.Second, func() bool {
		sum := 0
		for i := 1; i < nodes; i++ {
			udpNodes[i].Execute(func() { sum += receivers[i].Received() })
		}
		return sum >= (nodes-1)*total*92/100
	})

	for i := 1; i < nodes; i++ {
		udpNodes[i].Execute(func() {
			if receivers[i].VerifyFailures != 0 {
				t.Errorf("node %d: payload verification failed under netem", i)
			}
		})
	}
	// Both adverse models must have actually ruled. The stream usually
	// completes before the split opens at 0.85 s, so wait for it: the
	// aggregation chatter (one message per node per 200 ms, forever)
	// guarantees traffic crosses the split while it is up.
	perModel := func() map[string]int64 {
		sums := map[string]int64{}
		for i := range udpNodes {
			udpNodes[i].Execute(func() {
				for _, st := range engines[i].Stats() {
					sums[st.Name] += st.Drops
				}
			})
		}
		return sums
	}
	waitFor(t, 10*time.Second, func() bool { return perModel()["partition"] > 0 })
	if perModel()["gilbert-elliott"] == 0 {
		t.Error("bursty-loss model never dropped a datagram")
	}
}
