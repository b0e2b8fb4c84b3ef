package udpnet

import (
	"fmt"
	"maps"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/netem"
	"repro/internal/wire"
)

// settledGoroutines waits for runtime.NumGoroutine to stop moving and
// returns it, so goroutines that are exiting are not counted.
func settledGoroutines() int {
	last := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	return last
}

func loopRunning() bool {
	hostMu.Lock()
	defer hostMu.Unlock()
	return cur != nil
}

// TestOneLoopGoroutine: every node of the process runs on one loop
// goroutine, which starts with the first node and exits after the last
// Close.
func TestOneLoopGoroutine(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("elsewhere each socket has a reader goroutine")
	}
	if loopRunning() {
		t.Fatal("a loop is still running from an earlier test")
	}
	base := settledGoroutines()
	var nodes []*Node
	start := func(count int) {
		for i := 0; i < count; i++ {
			id := wire.NodeID(len(nodes))
			n, err := NewNode(id, &tickerHandler{period: time.Millisecond}, Config{Seed: int64(id)})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		if got := settledGoroutines(); got > base+1 {
			t.Fatalf("%d nodes run on %d goroutines over the %d before them, want at most 1", len(nodes), got-base, base)
		}
	}
	start(1)
	start(24)
	h := nodes[0].host.Load()
	for _, n := range nodes {
		if n.host.Load() != h {
			t.Fatal("nodes started together run on different loops")
		}
	}
	for _, n := range nodes {
		n.Close()
	}
	select {
	case <-h.done:
	default:
		t.Fatal("the last Close returned before the loop exited")
	}
	if loopRunning() {
		t.Fatal("a loop is registered after the last Close")
	}
	if got := settledGoroutines(); got != base {
		t.Fatalf("%d goroutines after the last Close, want the %d from before", got, base)
	}
}

// gossiper sends one propose to every peer each period, and counts what it
// receives from each; counts are read under the node mutex (Execute).
type gossiper struct {
	rt     env.Runtime
	peers  int
	period time.Duration
	msg    wire.Propose
	from   []int
}

func (g *gossiper) Start(rt env.Runtime) {
	g.rt, g.msg.IDs = rt, []wire.PacketID{1}
	g.from = make([]int, g.peers)
	env.NewTicker(rt, g.period, g.period, func() {
		for p := 0; p < g.peers; p++ {
			if wire.NodeID(p) != g.rt.ID() {
				g.rt.Send(wire.NodeID(p), &g.msg)
			}
		}
	})
}
func (g *gossiper) Receive(from wire.NodeID, _ wire.Message) { g.from[from]++ }
func (g *gossiper) Stop()                                    {}

// startGossipers starts count paced nodes that each gossip to all the
// others every 5 ms; the test's cleanup closes them.
func startGossipers(t *testing.T, count int, seed int64) ([]*Node, []*gossiper) {
	t.Helper()
	nodes := make([]*Node, count)
	handlers := make([]*gossiper, count)
	addrs := map[wire.NodeID]*net.UDPAddr{}
	for i := range nodes {
		handlers[i] = &gossiper{peers: count, period: 5 * time.Millisecond}
		n, err := NewNode(wire.NodeID(i), handlers[i], Config{Seed: seed + int64(i), UploadBps: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[wire.NodeID(i)] = n, n.Addr()
	}
	for _, n := range nodes {
		n.SetPeers(addrs)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, handlers
}

// TestCloseOneNodeOthersKeepDelivering: closing one node of a running
// session leaves its socket, timers and pacer out of the loop and nothing
// else: the other seven keep gossiping with one another.
func TestCloseOneNodeOthersKeepDelivering(t *testing.T) {
	const count = 8
	nodes, handlers := startGossipers(t, count, 70)
	snapshot := func() [count][count]int {
		var s [count][count]int
		for i, n := range nodes {
			n.Execute(func() { copy(s[i][:], handlers[i].from) })
		}
		return s
	}
	time.Sleep(50 * time.Millisecond)
	const closed = 3
	nodes[closed].Close()
	before := snapshot()
	time.Sleep(100 * time.Millisecond)
	after := snapshot()
	for i := range nodes {
		for j := range nodes {
			if i == j || i == closed || j == closed {
				continue
			}
			if after[i][j] <= before[i][j] {
				t.Fatalf("node %d heard nothing more from node %d after node %d closed", i, j, closed)
			}
		}
	}
	if n := nodes[closed].armedTimers(); n != 0 {
		t.Fatalf("the closed node still has %d entries on the loop's heap", n)
	}
}

// TestNetemDelayedDatagramsAllocateNothing: a netem-delayed datagram waits on
// the loop's timer heap, not in a closure and a runtime timer of its own, so
// once the heap and the buffer pool have grown, 1,000 delayed sends
// allocate nothing.
func TestNetemDelayedDatagramsAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("the encode-buffer pool allocates by design under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	recv := &countingHandler{}
	dst, err := NewNode(1, recv, Config{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	tx := &sendCapture{}
	src, err := NewNode(0, tx, Config{Seed: 82, QueueCap: 4096, Netem: netem.FixedDelay(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	peers := map[wire.NodeID]*net.UDPAddr{0: src.Addr(), 1: dst.Addr()}
	src.SetPeers(peers)
	dst.SetPeers(peers)
	if err := dst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	msg := &wire.Propose{Stream: 1, IDs: []wire.PacketID{1, 2, 3}}
	send := func() { tx.rt.Send(1, msg) }
	const datagrams = 1000
	burst := func() {
		base := recv.n.Load()
		for i := 0; i < datagrams; i++ {
			src.Execute(send)
		}
		deadline := time.Now().Add(5 * time.Second)
		for recv.n.Load()-base < datagrams && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := recv.n.Load() - base; got != datagrams {
			t.Fatalf("%d of %d delayed datagrams arrived", got, datagrams)
		}
	}
	burst() // warm-up: the heap and the buffer pool grow to a burst's size
	runtime.GC()
	burst() // after a collection the pool serves from its victim cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst()
	runtime.ReadMemStats(&after)
	if _, delayed := src.NetemCounters(); delayed != 3*datagrams {
		t.Fatalf("delayed = %d, want %d", delayed, 3*datagrams)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > datagrams/50 {
		t.Fatalf("%d delayed datagrams allocated %d objects, want next to none", datagrams, mallocs)
	}
}

// sendCapture keeps the runtime so a test can send through it from Execute.
type sendCapture struct{ rt env.Runtime }

func (c *sendCapture) Start(rt env.Runtime)              { c.rt = rt }
func (c *sendCapture) Receive(wire.NodeID, wire.Message) {}
func (c *sendCapture) Stop()                             {}

// TestPortableWait runs nodes on the wait the non-Linux platforms use — a
// reader goroutine per socket handing batches to the loop — over the
// portable socket path: delivery, a timer chain, and teardown.
func TestPortableWait(t *testing.T) {
	if loopRunning() {
		t.Fatal("a loop is still running from an earlier test")
	}
	hostMu.Lock()
	openWaiter = func() (waiter, error) { return newPortWaiter(), nil }
	hostMu.Unlock()
	defer func() {
		hostMu.Lock()
		openWaiter = newWaiter
		hostMu.Unlock()
	}()
	base := settledGoroutines()
	for round := 0; round < 2; round++ {
		t.Run(fmt.Sprint("round", round), func(t *testing.T) {
			recv := &collector{}
			b, err := NewNode(1, recv, Config{Seed: 91, DisableBatch: true})
			if err != nil {
				t.Fatal(err)
			}
			chain := &chainHandler{left: 100, done: make(chan struct{})}
			a, err := NewNode(0, chain, Config{Seed: 92, DisableBatch: true})
			if err != nil {
				t.Fatal(err)
			}
			chain.n = a
			peers := map[wire.NodeID]*net.UDPAddr{0: a.Addr(), 1: b.Addr()}
			a.SetPeers(peers)
			b.SetPeers(peers)
			if err := b.Start(); err != nil {
				t.Fatal(err)
			}
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			if _, ok := a.host.Load().w.(*portWaiter); !ok {
				t.Fatal("the nodes did not get the portable wait")
			}
			a.Execute(func() { (&sendOnStart{to: 1}).Start(&nodeRuntime{n: a}) })
			waitFor(t, 3*time.Second, func() bool { return recv.count() >= 1 })
			select {
			case <-chain.done:
			case <-time.After(5 * time.Second):
				t.Fatal("the timer chain did not finish")
			}
			if w := wakeCounters(a); w["udp_loop_parks_total"] < 1 || w["udp_timer_arms_total"] < 1 {
				t.Fatalf("wake counters %v after a 100-timer chain, want parks and timer arms", w)
			}
			a.Close()
			b.Close()
		})
	}
	if got := settledGoroutines(); got != base {
		t.Fatalf("%d goroutines after the last Close, want the %d from before", got, base)
	}
}

// TestTimerHeapOrder checks the loop's queue against a sort: entries pop in
// (due, arm order), ties included, and a sweep of one node's entries (as
// Close does) leaves a heap that still pops in order.
func TestTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := &Node{}, &Node{}
	var q timerHeap
	var want []timerEnt
	for seq := uint64(1); seq <= 500; seq++ {
		e := timerEnt{due: time.Duration(rng.Intn(40)), seq: seq, n: a}
		if rng.Intn(3) == 0 {
			e.n = b
		}
		q.push(e)
		if e.n == a {
			want = append(want, e)
		}
	}
	kept := q[:0]
	for _, e := range q {
		if e.n != b {
			kept = append(kept, e)
		}
	}
	q = kept
	q.init()
	slices.SortFunc(want, func(x, y timerEnt) int {
		if x.due != y.due {
			return int(x.due - y.due)
		}
		return int(x.seq) - int(y.seq)
	})
	for i, w := range want {
		if got := q.pop(); got.seq != w.seq {
			t.Fatalf("pop %d: entry armed %d (due %v), want armed %d (due %v)", i, got.seq, got.due, w.seq, w.due)
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d entries left", len(q))
	}
}

// TestSendWakesParkedLoop: with no timer armed anywhere the loop parks with
// no deadline, so a send made from outside it (Execute) must poke it, or
// the datagram waits in the ring for good.
func TestSendWakesParkedLoop(t *testing.T) {
	recv := &collector{}
	b, err := NewNode(1, recv, Config{Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tx := &sendCapture{}
	a, err := NewNode(0, tx, Config{Seed: 96})
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
	msg := &wire.Propose{IDs: []wire.PacketID{5}}
	before := wakeCounters(a)
	for i := 1; i <= 3; i++ {
		time.Sleep(20 * time.Millisecond) // the loop has parked
		a.Execute(func() { tx.rt.Send(1, msg) })
		waitFor(t, time.Second, func() bool { return recv.count() >= i })
	}
	// Each send found the loop parked, so each poked it; each of those
	// parks ended a wait, and the loop parked again after the last.
	after := wakeCounters(a)
	if pokes, parks := after["udp_loop_pokes_total"]-before["udp_loop_pokes_total"],
		after["udp_loop_parks_total"]-before["udp_loop_parks_total"]; pokes < 3 || parks < 3 {
		t.Fatalf("%v pokes and %v parks over 3 sends to a parked loop, want at least 3 each", pokes, parks)
	}
	if b := wakeCounters(b); !maps.Equal(b, wakeCounters(a)) {
		t.Fatalf("nodes on one loop report different wake counts: %v and %v", b, wakeCounters(a))
	}
	fired := make(chan struct{})
	a.Execute(func() { tx.rt.AfterFunc(5*time.Millisecond, func() { close(fired) }) })
	<-fired
	if arms := wakeCounters(a)["udp_timer_arms_total"] - after["udp_timer_arms_total"]; arms < 1 {
		t.Fatalf("a timer armed on a parked loop set its deadline %v times", arms)
	}
}

// wakeCounters returns the loop's wake counters as n's Collect reports them.
func wakeCounters(n *Node) map[string]float64 {
	m := map[string]float64{}
	n.Collect(func(name string, v float64) {
		if strings.HasPrefix(name, "udp_loop_") || name == "udp_timer_arms_total" {
			m[name] = v
		}
	})
	return m
}
