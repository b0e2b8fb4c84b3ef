// Package ratelimit implements the paper's application-level bandwidth
// throttling (§3.1): a token-bucket pacer with a FIFO queue in front of it.
// Nodes never push bursts that exceed their upload capacity; excess packets
// wait in the queue and leave as soon as bandwidth allows.
//
// The queue is a fixed ring allocated once, guarded by one mutex that
// orders Enqueue, the release step and Close. One pacing implementation
// serves two owners: Release is the step — it flushes every run the clock
// has released by a given instant and says when the next item is due — and
// either the Sender's own drain goroutine calls it (NewSender,
// NewBatchSender) or an event loop that owns the sender does
// (NewSteppedSender). The consumer parks only when a step found the queue
// empty, and Enqueue notifies it only then, so a busy sender hands items
// over under the lock alone, with no channel operation per item.
//
// The discrete-event simulator models this behaviour natively
// (internal/simnet); this package provides it for the real-UDP runtime
// (internal/udpnet).
package ratelimit

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sender paces items of type T through a send function at a fixed bit rate.
// Items queue FIFO in a ring of queueCap slots; when it is full, Enqueue
// drops (tail drop) — a bounded variant of the paper's unbounded
// application queue.
//
// A batch-aware Sender (NewBatchSender) coalesces items the pacing clock has
// already released into one flush callback — the hook for batched-syscall
// transports (sendmmsg) — without changing the pacing itself: an item leaves
// no earlier than its serialization time allows, batched or not.
type Sender[T any] struct {
	rateBps  atomic.Int64
	sizeOf   func(T) int
	flush    func([]T)
	batchMax int

	// notify tells the consumer that a Release may now do something it
	// could not before: an Enqueue onto the ring a step found empty,
	// SetRate and Close call it. For the drain goroutine it leaves a token
	// on wake; a stepped sender's owner supplies its own.
	notify func()

	// stepMu is held through a step, flush included, so steps run one at a
	// time whoever calls them, and Close can wait out the one in flight.
	stepMu sync.Mutex

	// mu guards the ring, the flags and the pacing clock. A step takes a
	// released run out in one hold and flushes it outside; Close sets
	// closed under it, so no item enters the ring once Close's final sweep
	// can run.
	mu     sync.Mutex
	ring   []slot[T]
	head   int          // index of the oldest queued item
	n      int          // queued items, the one being paced included
	items  atomic.Int32 // n, for FlushBacklog's look without the lock
	closed bool
	// parked is set by a step that finds or leaves the ring empty; the
	// Enqueue that clears it owes the consumer a notify.
	parked bool
	// The pacing clock: txClock is when the uplink becomes free; idle
	// records that the ring was seen empty since, so the next item restarts
	// the clock from now.
	txClock time.Time
	idle    bool
	batch   []T // a step's run, reused; only one step runs at a time

	// wake is the drain goroutine's one wait channel (nil on a stepped
	// sender): notify leaves a token in its single slot (coalescing is
	// fine: the drain rechecks everything it was waiting for), so an idle
	// drain parks on one channel and a pacing one on this and its timer.
	wake chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	sent      atomic.Int64
	dropped   atomic.Int64
	bytes     atomic.Int64
	queued    atomic.Int64 // bytes accepted but not yet transmitted
	accepted  atomic.Int64 // bytes ever accepted (enqueue-counted, monotonic)
	discarded atomic.Int64 // bytes accepted but discarded undelivered by Close
}

// slot is a queued item with the size Enqueue charged for it, so the drain
// and Close never call back into sizeOf while they hold the lock.
type slot[T any] struct {
	item T
	size int64
}

// NewSender builds and starts a paced sender. rateBps <= 0 means unlimited.
// sizeOf must return the on-wire size (used for pacing); send performs the
// actual transmission and must not block indefinitely, nor call back into
// the sender's Release or Close (a step holds the step lock through it).
func NewSender[T any](rateBps int64, queueCap int, sizeOf func(T) int, send func(T)) (*Sender[T], error) {
	if send == nil {
		return nil, fmt.Errorf("ratelimit: sizeOf and send are required")
	}
	return NewBatchSender(rateBps, queueCap, 1, sizeOf, func(items []T) {
		for _, item := range items {
			send(item)
		}
	})
}

// NewBatchSender builds and starts a paced sender with a batch-aware drain:
// when the pacing clock has released several queued items (or the rate is
// unlimited), up to batchMax of them leave in one flush call instead of one
// call per item. FIFO order, per-item byte accounting, and the SetRate
// re-pacing semantics are identical to the per-item sender; batchMax 1
// degenerates to it exactly.
func NewBatchSender[T any](rateBps int64, queueCap, batchMax int, sizeOf func(T) int, flush func([]T)) (*Sender[T], error) {
	s, err := newSender(rateBps, queueCap, batchMax, sizeOf, flush)
	if err != nil {
		return nil, err
	}
	s.wake = make(chan struct{}, 1)
	s.notify = s.signal
	s.wg.Add(1)
	go s.drain()
	return s, nil
}

// NewSteppedSender builds a paced sender without a drain goroutine: its
// owner — an event loop — calls Release, always from one goroutine at a
// time, and Release runs the flushes on that goroutine. notify (nil for
// none) is called, from whatever goroutine Enqueues, sets the rate or
// closes, when a Release would now do more than the last one said: the
// ring that a Release left empty got an item, the rate changed, or the
// sender closed. The queue, the books and the pacing are the other
// constructors' exactly.
func NewSteppedSender[T any](rateBps int64, queueCap, batchMax int, sizeOf func(T) int, flush func([]T), notify func()) (*Sender[T], error) {
	s, err := newSender(rateBps, queueCap, batchMax, sizeOf, flush)
	if err != nil {
		return nil, err
	}
	if notify != nil {
		s.notify = notify
	}
	return s, nil
}

func newSender[T any](rateBps int64, queueCap, batchMax int, sizeOf func(T) int, flush func([]T)) (*Sender[T], error) {
	if queueCap <= 0 {
		return nil, fmt.Errorf("ratelimit: queue capacity %d must be positive", queueCap)
	}
	if batchMax <= 0 {
		return nil, fmt.Errorf("ratelimit: batch size %d must be positive", batchMax)
	}
	if sizeOf == nil || flush == nil {
		return nil, fmt.Errorf("ratelimit: sizeOf and send are required")
	}
	s := &Sender[T]{
		sizeOf:   sizeOf,
		flush:    flush,
		notify:   func() {},
		batchMax: batchMax,
		ring:     make([]slot[T], queueCap),
		parked:   true, // no step has run: the first Enqueue notifies
		idle:     true,
		batch:    make([]T, 0, batchMax),
	}
	s.rateBps.Store(rateBps)
	return s, nil
}

// SetRate rewrites the pacing rate (bits per second; <= 0 means unlimited)
// — capability drift and netem capability traces on the real-socket path.
// Safe to call concurrently with Enqueue, Close, and Release; the new rate
// applies immediately, re-pacing even an item the consumer is currently
// waiting on (a trace that unthrottles the node must not stay stuck behind
// a multi-second wait computed from the old rate).
func (s *Sender[T]) SetRate(rateBps int64) {
	s.rateBps.Store(rateBps)
	s.notify()
}

// signal leaves a wake token for the drain; if one is already pending the
// drain has yet to recheck, and will see this change too.
func (s *Sender[T]) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Enqueue submits an item for paced transmission. It reports false when the
// queue is full (the item is dropped) or the sender is closed. Only
// queue-full rejections count into Dropped: a closed sender is not
// congestion, and charging its rejections there would pollute the
// tail-drop signal the adaptation layer reads.
func (s *Sender[T]) Enqueue(item T) bool {
	size := int64(s.sizeOf(item))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.n == len(s.ring) {
		s.mu.Unlock()
		s.dropped.Add(1)
		return false
	}
	tail := s.head + s.n
	if tail >= len(s.ring) {
		tail -= len(s.ring)
	}
	s.ring[tail] = slot[T]{item, size}
	s.n++
	s.items.Store(int32(s.n))
	// The gauges move with the ring under the lock, so an observer never
	// sees an accepted item missing from QueuedBytes (the drain debits only
	// after transmission: the gauge errs toward over-reporting pressure).
	s.queued.Add(size)
	s.accepted.Add(size)
	wake := s.parked
	s.parked = false
	s.mu.Unlock()
	if wake {
		s.notify()
	}
	return true
}

// Close stops the sender: it waits for a flush in progress to finish and,
// on a sender with a drain goroutine, for the drain to exit. Queued items
// are discarded — their bytes move from the queued gauge to DiscardedBytes,
// so QueuedBytes and QueueBacklog read zero on a closed sender instead of
// over-reporting forever. Close is idempotent; concurrent callers return
// only once the shutdown (including the discard sweep) has completed.
func (s *Sender[T]) Close() {
	s.once.Do(func() {
		// Every Enqueue that got an item into the ring did so before this
		// hold; every later one sees closed, and so does every later step.
		// So once the step in flight has flushed its run, the sweep below
		// is the last writer of the ring and the gauge.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.notify()
		s.wg.Wait()
		s.stepMu.Lock()
		defer s.stepMu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		for s.n > 0 {
			size := s.pop().size
			s.queued.Add(-size)
			s.discarded.Add(size)
		}
	})
}

// pop removes and returns the head slot, clearing it so the ring keeps no
// reference to a transmitted item. The caller holds mu.
func (s *Sender[T]) pop() slot[T] {
	sl := s.ring[s.head]
	s.ring[s.head] = slot[T]{}
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	s.n--
	s.items.Store(int32(s.n))
	return sl
}

// Sent returns the number of items transmitted.
func (s *Sender[T]) Sent() int64 { return s.sent.Load() }

// Dropped returns the number of items tail-dropped by the bounded queue.
func (s *Sender[T]) Dropped() int64 { return s.dropped.Load() }

// BytesSent returns the total bytes transmitted: a monotonic count of bytes
// that actually left the sender (counted at transmit, not enqueue), so
// ΔBytesSent over a window is achieved throughput directly, without racing
// QueueLen polls. NOT the adapt.Sample.SentBytes signal — that field wants
// the enqueue-counted AcceptedBytes (the controller subtracts ΔQueuedBytes
// itself; feeding it transmit-counted bytes double-counts queue movement).
func (s *Sender[T]) BytesSent() int64 { return s.bytes.Load() }

// AcceptedBytes returns the monotonic count of bytes ever accepted into the
// queue (enqueue-counted; drops excluded). This is the adapt.Sample
// convention for SentBytes — the controller derives the drained bytes as
// ΔAcceptedBytes − ΔQueuedBytes, so the enqueue- and transmit-side counters
// must not be mixed.
func (s *Sender[T]) AcceptedBytes() int64 { return s.accepted.Load() }

// DiscardedBytes returns the bytes of accepted items that Close discarded
// undelivered. Once Close has returned the books balance exactly:
// AcceptedBytes = BytesSent + DiscardedBytes, and QueuedBytes is zero.
func (s *Sender[T]) DiscardedBytes() int64 { return s.discarded.Load() }

// QueueLen returns the instantaneous queue length, the item being paced
// included.
func (s *Sender[T]) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// QueuedBytes returns the bytes accepted for transmission but not yet sent
// (the item currently pacing included). Together with BytesSent it gives a
// race-free window-drain signal: bytes drained = ΔBytesSent, backlog =
// QueuedBytes — both single atomic loads. Zero after Close.
func (s *Sender[T]) QueuedBytes() int64 { return s.queued.Load() }

// QueueBacklog converts the queued bytes into drain time at the current
// rate — the paced-sender analogue of the simulator's uplink backlog, the
// congestion signal the adaptation layer watches. 0 when unlimited.
func (s *Sender[T]) QueueBacklog() time.Duration {
	rate := s.rateBps.Load()
	if rate <= 0 {
		return 0
	}
	return time.Duration(s.queued.Load() * 8 * int64(time.Second) / rate)
}

// Collect emits the sender's accounting as named samples — the registration
// surface for a telemetry registry (the sender stays registry-agnostic; the
// caller prefixes the names). Safe from any goroutine. The byte books are
// emitted together so one snapshot is conservation-checkable: after Close
// the values satisfy accepted_bytes_total == sent_bytes_total +
// discarded_bytes_total exactly, with queued_bytes zero; live, queued_bytes
// accounts for the gap.
func (s *Sender[T]) Collect(emit func(name string, value float64)) {
	emit("send_datagrams_total", float64(s.sent.Load()))
	emit("send_tail_dropped_total", float64(s.dropped.Load()))
	emit("sent_bytes_total", float64(s.bytes.Load()))
	emit("discarded_bytes_total", float64(s.discarded.Load()))
	emit("queued_bytes", float64(s.queued.Load()))
	emit("accepted_bytes_total", float64(s.accepted.Load()))
	emit("send_backlog_seconds", s.QueueBacklog().Seconds())
}

// Release is the pacing step. It flushes the run the clock has released by
// now — at most batchMax items, in one flush call on the caller's goroutine
// — and returns when the next queued item is due: a time not after now if
// more have been released already, the zero Time when the ring is empty
// (the next Enqueue notifies) or the sender is closed. A step in progress
// elsewhere (FlushBacklog's) is waited for. The drain goroutine of
// NewSender/NewBatchSender steps its own sender; a stepped sender's owner
// calls Release from its loop.
func (s *Sender[T]) Release(now time.Time) time.Time {
	next, _ := s.step(now)
	return next
}

// FlushBacklog is for a producer outside the consumer's goroutine: when two
// full batches are queued — the consumer, stepping once per turn, has
// fallen behind — and no step is running, it steps once on the caller's
// goroutine, so a producer that outruns the consumer spends its own time on
// the flush instead of waiting for it. It never waits for a step in
// progress.
func (s *Sender[T]) FlushBacklog() {
	if int(s.items.Load()) < 2*s.batchMax || !s.stepMu.TryLock() {
		return
	}
	s.stepLocked(time.Now())
	s.stepMu.Unlock()
}

// step is Release, also reporting a closed sender (for the drain to exit).
func (s *Sender[T]) step(now time.Time) (next time.Time, closed bool) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.stepLocked(now)
}

// stepLocked is step with stepMu held.
func (s *Sender[T]) stepLocked(now time.Time) (next time.Time, closed bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return time.Time{}, true
	}
	var bytes int64
	s.batch, bytes, next = s.release(now, s.batch[:0])
	s.mu.Unlock()
	if len(s.batch) > 0 {
		s.bytes.Add(bytes)
		s.flush(s.batch)
		s.sent.Add(int64(len(s.batch)))
		s.queued.Add(-bytes)
	}
	return next, false
}

// release takes the run the pacing clock has released by now out of the
// ring, appending it to run, and returns it with its bytes and when the
// next item is due (the zero Time once the ring is empty, which parks the
// consumer until an Enqueue notifies it). The caller holds mu.
//
// A virtual transmission clock advances by each item's serialization time,
// and an item leaves only once the clock, so advanced, is not ahead of now.
// This is equivalent to a token bucket with zero burst, which is what
// "never exceed the upload capability" requires. The clock restarts from
// now only when the uplink went idle — the ring was seen empty — as
// simnet's uplink does (start = max(now, uplinkFreeAt)); a backlogged
// sender keeps its clock, so a late step or a slow flush is made up by the
// items behind it instead of lost for good. The head item stays in the ring
// until it is released, and every step prices it at the current rate from
// the same clock base: a SetRate while the consumer waits re-paces it, the
// time already waited counting against the new serialization time, so rate
// increases release the item early and decreases extend the wait.
//
// The run is the head and every further item whose serialization time has
// also already elapsed — all of them, when the rate is unlimited — up to
// batchMax; it stops at the first item that still owes time.
func (s *Sender[T]) release(now time.Time, run []T) ([]T, int64, time.Time) {
	if s.n == 0 {
		s.parked, s.idle = true, true
		return run, 0, time.Time{}
	}
	rate := s.rateBps.Load()
	if rate <= 0 {
		s.idle = true // unlimited keeps no clock: pacing restarts from now
	} else if s.idle {
		if s.txClock.Before(now) {
			s.txClock = now
		}
		s.idle = false
	}
	var bytes int64
	for s.n > 0 && len(run) < s.batchMax {
		size := s.ring[s.head].size
		if rate > 0 {
			deadline := s.txClock.Add(serialization(size, rate))
			if deadline.After(now) {
				return run, bytes, deadline // still owes serialization time
			}
			s.txClock = deadline
		}
		run = append(run, s.pop().item)
		bytes += size
	}
	switch {
	case s.n == 0:
		s.parked, s.idle = true, true
		return run, bytes, time.Time{}
	case rate <= 0:
		return run, bytes, now
	default:
		return run, bytes, s.txClock.Add(serialization(s.ring[s.head].size, rate))
	}
}

// drain is the goroutine consumer of NewSender/NewBatchSender: it steps at
// the wall clock and sleeps until the next item is due, or on an empty ring
// until an Enqueue notifies it. SetRate and Close end a sleep early.
func (s *Sender[T]) drain() {
	defer s.wg.Done()
	var timer *time.Timer // the loop's one timer, re-armed per paced wait
	for {
		next, closed := s.step(time.Now())
		switch {
		case closed:
			return // Close sweeps the ring
		case next.IsZero():
			<-s.wake
			continue
		}
		wait := time.Until(next)
		if wait <= 0 {
			continue
		}
		// go 1.23+ timers: Reset on a stopped or fired timer needs no
		// drain, and a Stop-ped timer leaves nothing in its channel.
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-timer.C:
		case <-s.wake:
			timer.Stop() // SetRate or Close: step again at once
		}
	}
}

// serialization is the time size bytes occupy an uplink of rate bits/s.
func serialization(size, rate int64) time.Duration {
	return time.Duration(size * 8 * int64(time.Second) / rate)
}
