package ratelimit

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestValidation(t *testing.T) {
	size := func(int) int { return 1 }
	send := func(int) {}
	if _, err := NewSender(0, 0, size, send); err == nil {
		t.Error("zero queue cap accepted")
	}
	if _, err := NewSender[int](0, 1, nil, send); err == nil {
		t.Error("nil sizeOf accepted")
	}
	if _, err := NewSender[int](0, 1, size, nil); err == nil {
		t.Error("nil send accepted")
	}
}

func TestUnlimitedSendsImmediately(t *testing.T) {
	var got atomic.Int64
	s, err := NewSender(0, 100, func(int) int { return 1000 }, func(int) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if !s.Enqueue(i) {
			t.Fatal("enqueue failed")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 50 {
		t.Fatalf("sent %d of 50", got.Load())
	}
	if s.BytesSent() != 50*1000 {
		t.Fatalf("bytes = %d, want 50000", s.BytesSent())
	}
}

func TestRatePacing(t *testing.T) {
	// 100 items of 1250 bytes at 1 Mbps = 10ms each = ~1s total. Use a
	// smaller run to keep the test fast: 20 items = ~200ms.
	var got atomic.Int64
	s, err := NewSender(1_000_000, 100, func(int) int { return 1250 }, func(int) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	for i := 0; i < 20; i++ {
		s.Enqueue(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	if got.Load() != 20 {
		t.Fatalf("sent %d of 20", got.Load())
	}
	// 20 * 10ms = 200ms of serialization. Allow generous scheduling slop
	// upward but fail if pacing was absent (much faster than 150ms).
	if elapsed < 150*time.Millisecond {
		t.Fatalf("20 items took %v; pacing absent (want >= ~200ms)", elapsed)
	}
}

func TestTailDropWhenFull(t *testing.T) {
	block := make(chan struct{})
	s, err := NewSender(1, 4, func(int) int { return 1 << 20 }, func(int) { <-block })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	// Fill queue (4) + the one the drain loop is stuck on; the rest drop.
	dropped := 0
	for i := 0; i < 20; i++ {
		if !s.Enqueue(i) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no drops despite full queue")
	}
	if s.Dropped() != int64(dropped) {
		t.Fatalf("Dropped() = %d, want %d", s.Dropped(), dropped)
	}
}

func TestCloseStopsAndIsIdempotent(t *testing.T) {
	s, err := NewSender(0, 10, func(int) int { return 1 }, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if s.Enqueue(1) {
		t.Fatal("enqueue succeeded after close")
	}
}

func TestCloseUnblocksPacedWait(t *testing.T) {
	// An item needing a long pacing wait must not block Close.
	s, err := NewSender(8, 10, func(int) int { return 1 << 20 }, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(1)
	s.Enqueue(2) // second item waits ~forever at 1 B/s
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on paced wait")
	}
}

func TestSetRateUnblocksPacedWait(t *testing.T) {
	// An item stuck behind a multi-second wait at 8 bps must be released
	// promptly when a capability-trace rewrite unthrottles the sender —
	// SetRate may not wait for the old pacing deadline.
	var got atomic.Int64
	s, err := NewSender(8, 10, func(int) int { return 1 << 20 }, func(int) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Enqueue(1)
	time.Sleep(20 * time.Millisecond) // the drain loop is now paced on item 1
	s.SetRate(0)                      // unthrottle
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatal("SetRate(0) did not release the item the loop was pacing")
	}
}

// TestConcurrentSetRateRace is the -race regression test for concurrent
// trace rewrites: SetRate storms from several goroutines race against
// Enqueue, the drain loop, the statistics accessors, and finally Close.
// It passes when the race detector stays silent and every accepted item is
// eventually sent exactly once.
func TestConcurrentSetRateRace(t *testing.T) {
	var sent atomic.Int64
	s, err := NewSender(64_000_000, 1024, func(int) int { return 100 }, func(int) { sent.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		rewrites = 200
		items    = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates := []int64{0, 8_000, 1_000_000, 64_000_000, -1}
			for i := 0; i < rewrites; i++ {
				s.SetRate(rates[(w+i)%len(rates)])
			}
		}()
	}
	accepted := int64(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			if s.Enqueue(i) {
				atomic.AddInt64(&accepted, 1)
			}
			if i%16 == 0 {
				_ = s.Sent()
				_ = s.BytesSent()
				_ = s.QueueLen()
			}
		}
	}()
	wg.Wait()

	// Leave the sender unthrottled so the queue drains, then require every
	// accepted item to be sent exactly once.
	s.SetRate(0)
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < atomic.LoadInt64(&accepted) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := sent.Load(), atomic.LoadInt64(&accepted); got != want {
		t.Fatalf("sent %d of %d accepted items", got, want)
	}
	s.Close()
	if s.Sent() != atomic.LoadInt64(&accepted) {
		t.Fatalf("Sent() = %d after close, want %d", s.Sent(), accepted)
	}
}

// TestThroughputAccounting checks the adaptation-facing accessors against a
// fully drained sender: BytesSent equals the sum of accepted sizes and the
// queued gauge returns to zero.
func TestThroughputAccounting(t *testing.T) {
	var sent atomic.Int64
	s, err := NewSender(0, 64, func(int) int { return 250 }, func(int) { sent.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	accepted := 0
	for i := 0; i < 32; i++ {
		if s.Enqueue(i) {
			accepted++
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for sent.Load() < int64(accepted) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := s.BytesSent(), int64(accepted)*250; got != want {
		t.Fatalf("BytesSent() = %d, want %d", got, want)
	}
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d after drain, want 0", q)
	}
	if b := s.QueueBacklog(); b != 0 {
		t.Fatalf("QueueBacklog() = %v for an unlimited sender, want 0", b)
	}
}

func TestQueueBacklogReflectsRate(t *testing.T) {
	block := make(chan struct{})
	// 8000 bps = 1000 B/s: each 500-byte item queued is 500 ms of backlog.
	s, err := NewSender(8000, 16, func(int) int { return 500 }, func(int) { <-block })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	for i := 0; i < 4; i++ {
		s.Enqueue(i)
	}
	// All four items are queued or pacing: 2000 bytes = 2 s at 1000 B/s.
	if got := s.QueueBacklog(); got != 2*time.Second {
		t.Fatalf("QueueBacklog() = %v, want 2s", got)
	}
	s.SetRate(16000) // doubling the rate halves the drain time
	if got := s.QueueBacklog(); got != time.Second {
		t.Fatalf("QueueBacklog() after SetRate = %v, want 1s", got)
	}
}

// TestConcurrentThroughputPollsRace is the -race regression test for the
// adaptation sampling path: pollers read BytesSent/QueuedBytes/QueueBacklog
// while producers enqueue and SetRate churns — the achieved-throughput
// computation must need no locks and the invariants (monotonic BytesSent,
// non-negative QueuedBytes, conservation of accepted bytes) must hold at
// every interleaving.
func TestConcurrentThroughputPollsRace(t *testing.T) {
	var sent atomic.Int64
	s, err := NewSender(64_000_000, 1024, func(int) int { return 100 }, func(int) { sent.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	const items = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSent int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := s.BytesSent()
				if b < lastSent {
					t.Error("BytesSent went backwards")
					return
				}
				lastSent = b
				if q := s.QueuedBytes(); q < 0 {
					t.Errorf("QueuedBytes() = %d, want >= 0", q)
					return
				}
				if s.QueueBacklog() < 0 {
					t.Error("negative QueueBacklog")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rates := []int64{8_000, 1_000_000, 0, 64_000_000}
		for i := 0; i < 200; i++ {
			s.SetRate(rates[i%len(rates)])
		}
	}()
	accepted := int64(0)
	for i := 0; i < items; i++ {
		if s.Enqueue(i) {
			accepted++
		}
	}
	s.SetRate(0)
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < accepted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s.Close()
	// Conservation after Close: every accepted byte was either transmitted
	// or discarded by Close's sweep, and the queued gauge reads zero — a
	// closed sender must not report backlog (on a starved single-core run
	// the 5 s drain window can expire with items still queued, so the sweep
	// is exercised here too).
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d after Close, want 0", q)
	}
	if got, want := s.BytesSent()+s.DiscardedBytes(), accepted*100; got != want {
		t.Fatalf("BytesSent+DiscardedBytes = %d, want %d accepted bytes", got, want)
	}
}

func TestQueueLen(t *testing.T) {
	block := make(chan struct{})
	s, err := NewSender(0, 10, func(int) int { return 1 }, func(int) { <-block })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	for i := 0; i < 5; i++ {
		s.Enqueue(i)
	}
	time.Sleep(10 * time.Millisecond) // drain loop picks up one
	if l := s.QueueLen(); l < 3 || l > 5 {
		t.Fatalf("queue length %d, want ~4", l)
	}
}

// TestConcurrentBacklogPollRace is the heapnode usage pattern: the node's
// engine goroutine enqueues and rewrites the pacing rate (capability drift),
// while a second goroutine — the status line — polls QueueBacklog and the
// queue gauges the whole time. Run under -race, this is a regression test
// that the backlog computation stays on atomic loads only; it must also
// never return a negative or absurd duration while the rate is being
// rewritten underneath it.
func TestConcurrentBacklogPollRace(t *testing.T) {
	s, err := NewSender(1_000_000, 2048, func(int) int { return 200 }, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ { // two pollers: status line + adaptation sampler
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := s.QueueBacklog()
				if b < 0 || b > time.Hour {
					bad.Add(1)
				}
				if s.QueuedBytes() < 0 {
					bad.Add(1)
				}
				_ = s.QueueLen()
				_ = s.BytesSent()
				_ = s.AcceptedBytes()
			}
		}()
	}

	rates := []int64{0, 4_000, 250_000, 16_000_000, -1, 1_000_000}
	for i := 0; i < 2000; i++ {
		s.SetRate(rates[i%len(rates)])
		s.Enqueue(i)
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d inconsistent backlog reads", n)
	}
}

// TestCloseZerosQueuedGauge is the regression for Close leaving the queued
// gauge charged for discarded items: a sender closed with items still
// queued must report zero QueuedBytes and QueueBacklog afterwards — the
// gauges feed udpnet's "truthful after Close" backlog accessors — with the
// discarded bytes accounted explicitly.
func TestCloseZerosQueuedGauge(t *testing.T) {
	// 8 bps: the first item paces for ~17 minutes, so everything is still
	// pending when Close lands.
	s, err := NewSender(8, 16, func(int) int { return 1000 }, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !s.Enqueue(i) {
			t.Fatal("enqueue failed")
		}
	}
	if s.QueuedBytes() == 0 {
		t.Fatal("test setup: nothing queued")
	}
	s.Close()
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d after Close, want 0", q)
	}
	if b := s.QueueBacklog(); b != 0 {
		t.Fatalf("QueueBacklog() = %v after Close, want 0", b)
	}
	if got, want := s.BytesSent()+s.DiscardedBytes(), int64(5*1000); got != want {
		t.Fatalf("BytesSent+DiscardedBytes = %d, want %d", got, want)
	}
}

// TestEnqueueAfterCloseNotCountedDropped pins the closed-sender rejection
// semantics: Enqueue reports false but must not pollute the tail-drop
// congestion signal the adaptation layer reads, nor touch the gauges.
func TestEnqueueAfterCloseNotCountedDropped(t *testing.T) {
	s, err := NewSender(0, 4, func(int) int { return 10 }, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := 0; i < 3; i++ {
		if s.Enqueue(i) {
			t.Fatal("enqueue succeeded after Close")
		}
	}
	if d := s.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d after post-Close enqueues, want 0 (shutdown is not congestion)", d)
	}
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d, want 0", q)
	}
	if a := s.AcceptedBytes(); a != 0 {
		t.Fatalf("AcceptedBytes() = %d, want 0", a)
	}
}

// TestEnqueueCloseRace is the -race regression for the Enqueue-after-Close
// window: the stop check and the channel send used to be non-atomic, so an
// item could slip into the queue after Close's sweep and inflate
// queued/accepted forever. Hammer Enqueue from several goroutines while
// Close lands; afterwards the books must balance exactly with a zero gauge.
func TestEnqueueCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		var sentBytes atomic.Int64
		s, err := NewSender(0, 64, func(int) int { return 7 }, func(int) { sentBytes.Add(7) })
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					s.Enqueue(i)
				}
			}()
		}
		s.Close()
		wg.Wait()
		if q := s.QueuedBytes(); q != 0 {
			t.Fatalf("round %d: QueuedBytes() = %d after Close+Enqueue race, want 0", round, q)
		}
		if got, want := s.BytesSent()+s.DiscardedBytes(), s.AcceptedBytes(); got != want {
			t.Fatalf("round %d: BytesSent+DiscardedBytes = %d, want AcceptedBytes %d (stranded items)",
				round, got, want)
		}
	}
}

// TestBatchDrainFlushesReleasedRuns pins the batch-aware drain: items the
// pacing clock has released together leave in one flush (bounded by
// batchMax), in FIFO order, with exact byte accounting.
func TestBatchDrainFlushesReleasedRuns(t *testing.T) {
	const batchMax = 8
	gate := make(chan struct{})
	var (
		mu      sync.Mutex
		flushes [][]int
		first   = true
	)
	s, err := NewBatchSender(0, 128, batchMax, func(int) int { return 50 }, func(items []int) {
		if first {
			// Block the first flush so the queue fills behind it and the
			// next flushes have released runs to coalesce.
			first = false
			<-gate
		}
		mu.Lock()
		flushes = append(flushes, append([]int(nil), items...))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const items = 60
	accepted := 0
	for i := 0; i < items; i++ {
		if s.Enqueue(i) {
			accepted++
		}
	}
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for s.Sent() < int64(accepted) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Sent() != int64(accepted) {
		t.Fatalf("sent %d of %d", s.Sent(), accepted)
	}
	mu.Lock()
	defer mu.Unlock()
	var order []int
	sawBatch := false
	for _, f := range flushes {
		if len(f) > batchMax {
			t.Fatalf("flush of %d items exceeds batchMax %d", len(f), batchMax)
		}
		if len(f) > 1 {
			sawBatch = true
		}
		order = append(order, f...)
	}
	if !sawBatch {
		t.Fatal("no multi-item flush despite a backed-up unlimited queue")
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("FIFO violated: item %d flushed before %d", order[i-1], order[i])
		}
	}
	if got, want := s.BytesSent(), int64(accepted*50); got != want {
		t.Fatalf("BytesSent() = %d, want %d", got, want)
	}
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d after drain, want 0", q)
	}
}

// TestBatchDrainRespectsPacing: batching coalesces released items only —
// it must never defeat the serialization clock. 20 items of 1250 B at
// 1 Mbps are 10 ms each (~200 ms total) regardless of batchMax.
func TestBatchDrainRespectsPacing(t *testing.T) {
	var got atomic.Int64
	s, err := NewBatchSender(1_000_000, 100, 16, func(int) int { return 1250 }, func(items []int) {
		got.Add(int64(len(items)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	for i := 0; i < 20; i++ {
		s.Enqueue(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 20 {
		t.Fatalf("sent %d of 20", got.Load())
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("20 items took %v; batching defeated pacing (want >= ~200ms)", elapsed)
	}
}

// TestBatchDrainConcurrentSetRateRace is the -race regression for the
// batch-aware drain: SetRate storms, concurrent enqueuers, and a mid-flight
// Close against a batching sender. Afterwards the conservation invariant
// must hold exactly — accepted = sent-bytes + discarded, queued = 0, no
// item stranded.
func TestBatchDrainConcurrentSetRateRace(t *testing.T) {
	var sentBytes atomic.Int64
	s, err := NewBatchSender(64_000_000, 1024, 32, func(int) int { return 100 }, func(items []int) {
		sentBytes.Add(int64(len(items)) * 100)
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates := []int64{0, 8_000, 1_000_000, 64_000_000, -1}
			for i := 0; i < 200; i++ {
				s.SetRate(rates[(w+i)%len(rates)])
			}
		}()
	}
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Enqueue(i)
				if i%32 == 0 {
					_ = s.QueueBacklog()
					_ = s.AcceptedBytes()
				}
			}
		}()
	}
	// Close in mid-flight: some items transmit, the rest must be swept.
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
	if q := s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d after Close, want 0", q)
	}
	if b := s.QueueBacklog(); b != 0 {
		t.Fatalf("QueueBacklog() = %v after Close, want 0", b)
	}
	if got, want := s.BytesSent()+s.DiscardedBytes(), s.AcceptedBytes(); got != want {
		t.Fatalf("BytesSent+DiscardedBytes = %d, want AcceptedBytes %d (stranded bytes)", got, want)
	}
	if sb := sentBytes.Load(); sb != s.BytesSent() {
		t.Fatalf("flush saw %d bytes, BytesSent reports %d", sb, s.BytesSent())
	}
}

// TestPacedWaitsAllocateNothing is the pacer's share of the live path's
// allocation budget: the drain loop owns one timer for its lifetime, so 1,000
// paced items on one Sender allocate nothing (a timer per wait was three
// objects each). 125-byte items at 20 Mbps are 50 µs of serialization apiece:
// each item the clock is ahead of is a real timer wait, and the items behind
// a late wake-up leave at once to make up for it.
func TestPacedWaitsAllocateNothing(t *testing.T) {
	const items = 1000
	var got atomic.Int64
	s, err := NewSender(20_000_000, items, func(int) int { return 125 }, func(int) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	rounds := int64(0)
	allocs := testing.AllocsPerRun(1, func() { // a warm-up round, then the measured one
		rounds++
		for i := 0; i < items; i++ {
			if !s.Enqueue(i) {
				t.Fatal("enqueue failed")
			}
		}
		for got.Load() < rounds*items {
			time.Sleep(200 * time.Microsecond)
		}
	})
	if elapsed, floor := time.Since(start), 2*items*50*time.Microsecond; elapsed < floor {
		t.Fatalf("2 x %d items took %v, under the %v their serialization needs: the waits were not paced", items, elapsed, floor)
	}
	if allocs != 0 {
		t.Fatalf("%d paced waits allocated %v objects, want 0", items, allocs)
	}
}

// TestBackloggedClockKeepsOverruns is the regression for the pacer clamp: a
// backlogged sender must not restart its clock from now after a late
// release, or every timer overshoot and slow flush is upload time lost for
// good. 20 items of 10 ms each (1250 B at 1 Mbps) are 200 ms of
// serialization; two flushes that overrun by 50 ms each are made up by the
// items queued behind them, so the run still takes ~200 ms, not ~300 ms.
func TestBackloggedClockKeepsOverruns(t *testing.T) {
	const items = 20
	var got atomic.Int64
	done := make(chan struct{})
	s, err := NewSender(1_000_000, items, func(int) int { return 1250 }, func(i int) {
		if i == 5 || i == 12 {
			time.Sleep(50 * time.Millisecond)
		}
		if got.Add(1) == items {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	for i := 0; i < items; i++ {
		if !s.Enqueue(i) {
			t.Fatal("enqueue failed")
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("sent %d of %d", got.Load(), items)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("%d items took %v; pacing absent (want ~200ms)", items, elapsed)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("%d items took %v, want ~200ms: the 100ms of flush overrun was not made up", items, elapsed)
	}
}

// TestNoLostWakeup stresses the edge-triggered wake: single items enqueued
// with random gaps of 0–50 µs, so each lands while the drain is flushing,
// about to park, or parked. Every item must be flushed before the next is
// enqueued; a wake lost in any of those windows stalls the drain, which
// fails the test after 1 s.
func TestNoLostWakeup(t *testing.T) {
	const items = 10_000
	flushed := make(chan int, 1)
	s, err := NewBatchSender(0, 64, 32, func(int) int { return 100 }, func(batch []int) {
		for _, i := range batch {
			flushed <- i
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	stall := time.NewTimer(time.Second)
	defer stall.Stop()
	for i := 0; i < items; i++ {
		if !s.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
		stall.Reset(time.Second)
		select {
		case got := <-flushed:
			if got != i {
				t.Fatalf("flushed %d, want %d", got, i)
			}
		case <-stall.C:
			t.Fatalf("item %d not flushed within 1s: lost wakeup", i)
		}
		for gap, t0 := time.Duration(rng.Intn(50_001)), time.Now(); time.Since(t0) < gap; {
			runtime.Gosched()
		}
	}
}

// TestUnpacedCycleAllocatesNothing is the unpaced path's allocation budget,
// the one udp-saturate runs: once warm, pushing 10,000 items through an
// unlimited sender with udpnet's queue and batch sizes allocates nothing —
// the ring is allocated once and a parked drain waits on its one channel.
func TestUnpacedCycleAllocatesNothing(t *testing.T) {
	const items = 10_000
	var flushed atomic.Int64
	s, err := NewBatchSender(0, 1024, 32, func(int) int { return 103 }, func(batch []int) {
		flushed.Add(int64(len(batch)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rounds := int64(0)
	allocs := testing.AllocsPerRun(1, func() { // a warm-up round, then the measured one
		rounds++
		for i := 0; i < items; i++ {
			for !s.Enqueue(i) {
				runtime.Gosched()
			}
		}
		for flushed.Load() < rounds*items {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d unpaced items allocated %v objects, want 0", items, allocs)
	}
}

// steppedRecorder is a stepped sender whose Release the test drives with a
// fake clock; flushes records each run, so the clock rule is checked with no
// sleeps.
type steppedRecorder struct {
	s    *Sender[int]
	runs [][]int
}

// newStepped builds a stepped sender of 1250-byte items — 10 ms apiece at
// 1 Mbps — flushing at most batchMax per run.
func newStepped(t *testing.T, rateBps int64, batchMax int) *steppedRecorder {
	t.Helper()
	r := &steppedRecorder{}
	s, err := NewSteppedSender(rateBps, 64, batchMax, func(int) int { return 1250 },
		func(run []int) { r.runs = append(r.runs, append([]int(nil), run...)) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	r.s = s
	return r
}

func (r *steppedRecorder) enqueue(t *testing.T, items ...int) {
	t.Helper()
	for _, i := range items {
		if !r.s.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
}

// release steps at now and checks the run it flushed and the next due time
// it reported (as an offset from t0; -1 for none).
func (r *steppedRecorder) release(t *testing.T, t0 time.Time, now time.Duration, run []int, next time.Duration) {
	t.Helper()
	before := len(r.runs)
	at := r.s.Release(t0.Add(now))
	var got []int
	if len(r.runs) > before {
		got = r.runs[before]
	}
	if fmt.Sprint(got) != fmt.Sprint(run) {
		t.Fatalf("Release at %v flushed %v, want %v", now, got, run)
	}
	gotNext := time.Duration(-1)
	if !at.IsZero() {
		gotNext = at.Sub(t0)
	}
	if gotNext != next {
		t.Fatalf("Release at %v reported next due %v, want %v", now, gotNext, next)
	}
}

// TestSteppedClockIdleRestartsBackloggedKeeps pins the clock rule on a fake
// clock: a backlogged uplink keeps its clock through a late step (the items
// behind make the lateness up), and only an uplink that went idle restarts
// from now.
func TestSteppedClockIdleRestartsBackloggedKeeps(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(1000, 0)
	r := newStepped(t, 1_000_000, 8)
	r.enqueue(t, 1, 2, 3)
	r.release(t, t0, 0, nil, 10*ms)          // the clock starts at the first look
	r.release(t, t0, 15*ms, []int{1}, 20*ms) // 5 ms late: item 2 is still due at 20, not 25
	r.release(t, t0, 30*ms, []int{2, 3}, -1) // both owed by 30: the lateness is made up
	r.enqueue(t, 4)                          // idle since 30
	r.release(t, t0, 100*ms, nil, 110*ms)    // restarts from now, not from 30
	r.release(t, t0, 110*ms, []int{4}, -1)
}

// TestSteppedSetRateRepacesFromSameBase: a rate change while the head item
// waits prices it again from the same clock base, counting the time already
// waited.
func TestSteppedSetRateRepacesFromSameBase(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(1000, 0)
	r := newStepped(t, 1_000_000, 8)
	r.enqueue(t, 1, 2)
	r.release(t, t0, 0, nil, 10*ms)
	r.s.SetRate(2_000_000)            // 5 ms per item from here
	r.release(t, t0, 1*ms, nil, 5*ms) // from the base at 0, not from 1
	r.s.SetRate(500_000)              // 20 ms per item
	r.release(t, t0, 6*ms, nil, 20*ms)
	r.release(t, t0, 20*ms, []int{1}, 40*ms)
}

// TestSteppedRunCuts: a run stops at batchMax and at the first item that
// still owes serialization time; what was cut at batchMax is due at once.
func TestSteppedRunCuts(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(1000, 0)
	r := newStepped(t, 1_000_000, 3)
	r.enqueue(t, 1, 2, 3, 4, 5, 6)
	r.release(t, t0, 0, nil, 10*ms)
	r.release(t, t0, 45*ms, []int{1, 2, 3}, 40*ms) // cut at batchMax: item 4 was due at 40
	r.release(t, t0, 45*ms, []int{4}, 50*ms)       // cut at item 5, owed until 50
	r.release(t, t0, 60*ms, []int{5, 6}, -1)
}

// TestSteppedUnlimitedReleasesEverything: with no rate every queued item is
// released at once, batchMax at a time, and the clock plays no part.
func TestSteppedUnlimitedReleasesEverything(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := newStepped(t, 0, 4)
	r.enqueue(t, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	r.release(t, t0, 0, []int{1, 2, 3, 4}, 0)
	r.release(t, t0, 0, []int{5, 6, 7, 8}, 0)
	r.release(t, t0, 0, []int{9, 10}, -1)
	if got, want := r.s.BytesSent(), int64(10*1250); got != want {
		t.Fatalf("BytesSent() = %d, want %d", got, want)
	}
	if q := r.s.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes() = %d, want 0", q)
	}
}

// TestSteppedNotifiesOnlyFromEmpty: a stepped sender's notify fires for the
// Enqueue onto a ring its last step left empty, and for SetRate — not for
// items queued behind a head the owner already knows is due.
func TestSteppedNotifiesOnlyFromEmpty(t *testing.T) {
	var notified int
	s, err := NewSteppedSender(1_000_000, 8, 4, func(int) int { return 1250 }, func([]int) {}, func() { notified++ })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t0 := time.Unix(1000, 0)
	s.Enqueue(1) // no step yet: the owner is owed a notify
	s.Enqueue(2)
	if notified != 1 {
		t.Fatalf("%d notifies after two enqueues onto a fresh sender, want 1", notified)
	}
	s.Release(t0)
	s.Enqueue(3) // the head is still pacing: the owner knows when to step
	if notified != 1 {
		t.Fatalf("enqueue behind a pacing head notified")
	}
	s.SetRate(2_000_000)
	if notified != 2 {
		t.Fatalf("SetRate did not notify")
	}
	s.Release(t0.Add(time.Second)) // releases all three
	s.Enqueue(4)
	if notified != 3 {
		t.Fatalf("enqueue onto a ring a step left empty did not notify")
	}
}

// TestFlushBacklogOnlyWhenBehind: a producer's FlushBacklog steps once on
// its own goroutine when two full batches wait, does nothing below that,
// and never waits for a step already running.
func TestFlushBacklogOnlyWhenBehind(t *testing.T) {
	var runs [][]int
	entered, unblock := make(chan struct{}), make(chan struct{})
	var blockNext atomic.Bool
	s, err := NewSteppedSender(0, 16, 2, func(int) int { return 100 }, func(run []int) {
		if blockNext.CompareAndSwap(true, false) {
			close(entered)
			<-unblock
		}
		runs = append(runs, append([]int(nil), run...))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 3; i++ {
		s.Enqueue(i)
	}
	s.FlushBacklog()
	if len(runs) != 0 {
		t.Fatalf("flushed %v with fewer than two batches queued", runs)
	}
	s.Enqueue(4)
	s.FlushBacklog()
	if fmt.Sprint(runs) != "[[1 2]]" {
		t.Fatalf("flushed %v, want one run [1 2]", runs)
	}
	s.Enqueue(5)
	s.Enqueue(6)
	blockNext.Store(true)
	done := make(chan struct{})
	go func() {
		s.Release(time.Now())
		close(done)
	}()
	<-entered
	s.FlushBacklog() // a step is running: must return at once
	close(unblock)
	<-done
	if fmt.Sprint(runs) != "[[1 2] [3 4]]" {
		t.Fatalf("flushed %v, want [[1 2] [3 4]]", runs)
	}
}
