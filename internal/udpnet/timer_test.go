package udpnet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// armedTimers counts the node's entries on the event loop's timer heap:
// its armed AfterFuncs and delayed datagrams. It takes only the host mutex,
// so a callback holding the node mutex may call it.
func (n *Node) armedTimers() int {
	h := n.host.Load()
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	armed := 0
	for _, e := range h.timers {
		if e.n == n {
			armed++
		}
	}
	return armed
}

// tickerHandler is a protocol whose only activity is one long-period ticker,
// like the engine's two-minute prune.
type tickerHandler struct {
	period time.Duration
	ticks  int
	state  []byte // stands in for tables and buffered payloads
}

func (h *tickerHandler) Start(rt env.Runtime) {
	env.NewTicker(rt, h.period, h.period, func() { h.ticks++ })
}
func (h *tickerHandler) Receive(wire.NodeID, wire.Message) {}
func (h *tickerHandler) Stop()                             {}

// TestCloseReleasesArmedTimers is the regression test for a closed node's
// stack staying reachable until its last timer fired: Close must leave
// nothing armed, and the handler must then be collectable even though its
// ticker had an hour to run.
func TestCloseReleasesArmedTimers(t *testing.T) {
	var finalized atomic.Bool
	func() {
		h := &tickerHandler{period: time.Hour, state: make([]byte, 1<<20)}
		runtime.SetFinalizer(h, func(*tickerHandler) { finalized.Store(true) })
		n, err := NewNode(0, h, Config{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if got := n.armedTimers(); got != 1 {
			t.Fatalf("%d timers armed after Start, want the ticker's one", got)
		}
		n.Close()
		if got := n.armedTimers(); got != 0 {
			t.Fatalf("%d timers still armed after Close", got)
		}
	}()
	// Finalizers run on their own goroutine after a collection, so give it a
	// few rounds.
	deadline := time.Now().Add(5 * time.Second)
	for !finalized.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !finalized.Load() {
		t.Fatal("the closed node's handler is still reachable: an armed timer pins its stack")
	}
}

// chainHandler re-arms itself from inside its own callback, as env.Ticker and
// the engine's retransmission timer do, and records the most heap entries
// its node ever had armed at a firing.
type chainHandler struct {
	rt       env.Runtime
	n        *Node
	left     int
	runFn    func()
	done     chan struct{}
	maxArmed int
}

func (h *chainHandler) Start(rt env.Runtime) {
	h.rt, h.runFn = rt, h.run
	rt.AfterFunc(0, h.runFn)
}
func (h *chainHandler) run() {
	h.maxArmed = max(h.maxArmed, h.n.armedTimers())
	if h.left--; h.left == 0 {
		close(h.done)
		return
	}
	h.rt.AfterFunc(10*time.Microsecond, h.runFn)
	h.maxArmed = max(h.maxArmed, h.n.armedTimers())
}
func (h *chainHandler) Receive(wire.NodeID, wire.Message) {}
func (h *chainHandler) Stop()                             {}

// TestAfterFuncChainReusesFiringTimer: the firing entry leaves the heap
// before its callback runs, so a self-re-arming chain of 1,000 firings never
// holds more than one entry (budget: 2) and allocates next to nothing, where
// a closure and a runtime timer per call were 2,000 objects.
func TestAfterFuncChainReusesFiringTimer(t *testing.T) {
	const firings = 1000
	h := &chainHandler{left: firings, done: make(chan struct{})}
	n, err := NewNode(0, h, Config{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	h.n = n
	defer n.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the chain did not finish")
	}
	runtime.ReadMemStats(&after)
	n.mu.Lock()
	timers := h.maxArmed
	n.mu.Unlock()
	if timers > 2 {
		t.Fatalf("%d firings held up to %d heap entries, want at most 2", firings, timers)
	}
	// Start itself (the loop goroutine, its waiter, the heap's first slots)
	// is a few dozen objects; a per-firing cost would be thousands.
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 200 {
		t.Fatalf("%d firings allocated %d objects: AfterFunc is allocating per call", firings, mallocs)
	}
}

// closeRaceHandler arms a spread of short timers whose callbacks must never
// run once Close has returned.
type closeRaceHandler struct {
	closed *atomic.Bool
	late   *atomic.Int64
	ran    *atomic.Int64
}

func (h closeRaceHandler) Start(rt env.Runtime) {
	for i := 0; i < 64; i++ {
		rt.AfterFunc(time.Duration(i)*50*time.Microsecond, func() {
			h.ran.Add(1)
			if h.closed.Load() {
				h.late.Add(1)
			}
		})
	}
	rt.AfterFunc(30*time.Millisecond, func() { h.late.Add(1) })
}
func (h closeRaceHandler) Receive(wire.NodeID, wire.Message) {}
func (h closeRaceHandler) Stop()                             {}

// TestAfterFuncNeverRunsAfterClose: a callback armed before Close never runs
// once Close has returned — neither one whose time had not come (swept off
// the heap) nor one the loop had already popped and that was waiting for the
// node mutex (silenced).
func TestAfterFuncNeverRunsAfterClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		var (
			closed    atomic.Bool
			late, ran atomic.Int64
		)
		n, err := NewNode(0, closeRaceHandler{&closed, &late, &ran}, Config{Seed: int64(round)})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(round) * 150 * time.Microsecond) // Close lands mid-spread
		n.Close()
		closed.Store(true)
		if got := n.armedTimers(); got != 0 {
			t.Fatalf("round %d: %d timers armed after Close", round, got)
		}
		time.Sleep(40 * time.Millisecond)
		if late.Load() != 0 {
			t.Fatalf("round %d: %d callbacks ran after Close returned (%d ran before)", round, late.Load(), ran.Load())
		}
	}
}
