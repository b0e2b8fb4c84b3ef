package udpnet

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// countingHandler counts deliveries without retaining anything — the
// receive-side cost it adds to the benchmark is one atomic add.
type countingHandler struct {
	n atomic.Int64
}

func (c *countingHandler) Start(env.Runtime)                 {}
func (c *countingHandler) Stop()                             {}
func (c *countingHandler) Receive(wire.NodeID, wire.Message) { c.n.Add(1) }

// loopbackPair starts a sender node and a counting receiver node on loopback,
// unthrottled, on the batched or the portable path.
func loopbackPair(tb testing.TB, disableBatch bool) (src, dst *Node, recv *countingHandler) {
	tb.Helper()
	recv = &countingHandler{}
	dst, err := NewNode(1, recv, Config{Seed: 41, DisableBatch: disableBatch})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(dst.Close)
	src, err = NewNode(0, &countingHandler{}, Config{Seed: 42, DisableBatch: disableBatch, QueueCap: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(src.Close)
	peers := map[wire.NodeID]*net.UDPAddr{0: src.Addr(), 1: dst.Addr()}
	src.SetPeers(peers)
	dst.SetPeers(peers)
	if err := dst.Start(); err != nil {
		tb.Fatal(err)
	}
	if err := src.Start(); err != nil {
		tb.Fatal(err)
	}
	return src, dst, recv
}

// pump bounds the in-flight window so a run measures sustainable pipeline
// throughput: an unchecked sender overruns the receiver's socket buffer
// (especially on the single-syscall path, which pays one wakeup per
// datagram) and kernel drops would turn the result into a loss measurement
// instead. Every pumpStep sends it waits until at most pumpWindow are in
// flight, so no more than pumpWindow+pumpStep encode buffers are ever out.
const pumpWindow, pumpStep = 2048, 512

// pump sends count small proposes from src through the same pooled encode
// path the runtime uses (nodeRuntime.Send inside Execute, as a load
// generator outside the event loop does), waits for the tail to land, and
// returns how many arrived and the time from the first send to the last
// arrival — the full marshal→pace→syscall→decode→dispatch pipeline on both
// sides.
func pump(src *Node, recv *countingHandler, count int) (received int64, elapsed time.Duration) {
	msg := &wire.Propose{Stream: 1, IDs: []wire.PacketID{1, 2, 3, 4, 5, 6, 7, 8}}
	rt := &nodeRuntime{n: src}
	send := func() { rt.Send(1, msg) }
	base := recv.n.Load()
	start := time.Now()
	for i := 0; i < count; i++ {
		src.Execute(send)
		if (i+1)%pumpStep == 0 {
			limit := time.Now().Add(time.Second)
			for recv.n.Load()-base < int64(i+1-pumpWindow) && time.Now().Before(limit) {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	// Wait for the tail to land. Loopback can still shed a stray fraction of
	// a percent under pressure, so stop when arrivals stall rather than
	// insisting on 100% — and measure elapsed at the last arrival so a
	// trailing stall window does not dilute the throughput number.
	last, lastChange := recv.n.Load()-base, time.Now()
	deadline := time.Now().Add(10 * time.Second)
	for last < int64(count) && time.Since(lastChange) < 500*time.Millisecond &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if cur := recv.n.Load() - base; cur != last {
			last, lastChange = cur, time.Now()
		}
	}
	return last, lastChange.Sub(start)
}

// BenchmarkUDPLoopbackSaturation drives b.N small gossip datagrams through
// a sender node to a receiver node over loopback, unthrottled, and reports
// throughput (pps), allocations per datagram and datagrams per send and per
// receive syscall for the batched-syscall path versus the portable
// single-syscall path:
//
//	go test -bench UDPLoopbackSaturation -benchtime 2s -run '^$' ./internal/udpnet
func BenchmarkUDPLoopbackSaturation(b *testing.B) {
	for _, bc := range []struct {
		name    string
		disable bool
	}{
		{"batch", false},
		{"single", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src, dst, recv := loopbackPair(b, bc.disable)
			b.ReportAllocs()
			b.ResetTimer()
			received, elapsed := pump(src, recv, b.N)
			b.StopTimer()
			sendCalls, _, _ := src.bio.Syscalls()
			_, recvCalls, _ := dst.bio.Syscalls()
			b.ReportMetric(float64(received)/elapsed.Seconds(), "pps")
			b.ReportMetric(float64(received)/float64(b.N)*100, "delivered%")
			b.ReportMetric(float64(b.N)/float64(sendCalls), "dgrams/send")
			b.ReportMetric(float64(received)/float64(recvCalls), "dgrams/recv")
			if received < int64(b.N)*9/10 {
				b.Fatalf("only %d of %d datagrams delivered", received, b.N)
			}
		})
	}
}

// TestLoopbackAllocationBudget asserts what the benchmark above only prints:
// a two-node unpaced exchange of 10,000 proposes allocates at most a quarter
// of an object per datagram end to end, on both I/O paths. The transport's
// own steady state allocates nothing; the budget is headroom for sync.Pool
// refills after a collection and the runtime's own bookkeeping. Before the
// persistent syscall callbacks, the per-slot decoders and the Serve-only
// arena this was 2 objects per datagram batched and 4 on the portable path.
func TestLoopbackAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the encode-buffer pool allocates by design under the race detector")
	}
	const datagrams = 10000
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable=%v", disable), func(t *testing.T) {
			src, _, recv := loopbackPair(t, disable)
			// Warm up: the encode-buffer pool holds as many buffers as pump
			// can have out at once. A warm-up pass alone does not always get
			// there — the batched path drains its queue fast enough that how
			// deep it gets depends on scheduling — and the measured pass
			// would then count the pool's growth.
			bufs := make([]*[]byte, pumpWindow+pumpStep)
			for i := range bufs {
				bufs[i] = getSendBuf()
			}
			for _, b := range bufs {
				putSendBuf(b)
			}
			pump(src, recv, datagrams)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			received, _ := pump(src, recv, datagrams)
			runtime.ReadMemStats(&after)
			if received < datagrams*9/10 {
				t.Fatalf("only %d of %d datagrams delivered", received, datagrams)
			}
			perDatagram := float64(after.Mallocs-before.Mallocs) / datagrams
			t.Logf("%.4f allocations per datagram (%d delivered)", perDatagram, received)
			if perDatagram > 0.25 {
				t.Fatalf("%.3f allocations per datagram, budget 0.25", perDatagram)
			}
		})
	}
}
