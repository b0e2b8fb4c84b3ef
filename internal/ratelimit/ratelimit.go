// Package ratelimit implements the paper's application-level bandwidth
// throttling (§3.1): a token-bucket pacer with a FIFO queue in front of it.
// Nodes never push bursts that exceed their upload capacity; excess packets
// wait in the queue and leave as soon as bandwidth allows.
//
// The queue is a fixed ring allocated once, guarded by one mutex that
// orders Enqueue, the drain loop and Close. The drain parks only when it
// finds the queue empty, and Enqueue wakes it only then, so a busy sender
// hands items over under the lock alone, with no channel operation per item.
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

	// mu guards the ring and the two flags. The drain peeks the head item
	// under it, paces outside it, and takes the released run out in one
	// hold; Close sets closed under it, so no item enters the ring once
	// Close's final sweep can run.
	mu     sync.Mutex
	ring   []slot[T]
	head   int // index of the oldest queued item
	n      int // queued items, the one being paced included
	closed bool
	// parked is set by the drain when it waits on an empty ring; the
	// Enqueue that clears it owes the drain a wake.
	parked bool
	// wake is the drain's one wait channel: an Enqueue onto the ring the
	// drain parked on, SetRate and Close each leave a token in its single
	// slot (coalescing is fine: the drain rechecks everything it was
	// waiting for), so an idle drain parks on one channel and a pacing one
	// on this and its timer.
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
// actual transmission and must not block indefinitely.
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
		batchMax: batchMax,
		ring:     make([]slot[T], queueCap),
		wake:     make(chan struct{}, 1),
	}
	s.rateBps.Store(rateBps)
	s.wg.Add(1)
	go s.drain()
	return s, nil
}

// SetRate rewrites the pacing rate (bits per second; <= 0 means unlimited)
// — capability drift and netem capability traces on the real-socket path.
// Safe to call concurrently with Enqueue, Close, and the drain loop; the
// new rate applies immediately, re-pacing even an item the loop is currently
// sleeping on (a trace that unthrottles the node must not stay stuck behind
// a multi-second wait computed from the old rate).
func (s *Sender[T]) SetRate(rateBps int64) {
	s.rateBps.Store(rateBps)
	s.signal()
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
	// The gauges move with the ring under the lock, so an observer never
	// sees an accepted item missing from QueuedBytes (the drain debits only
	// after transmission: the gauge errs toward over-reporting pressure).
	s.queued.Add(size)
	s.accepted.Add(size)
	wake := s.parked
	s.parked = false
	s.mu.Unlock()
	if wake {
		s.signal()
	}
	return true
}

// Close stops the drain loop and waits for it to exit. Queued items are
// discarded — their bytes move from the queued gauge to DiscardedBytes, so
// QueuedBytes and QueueBacklog read zero on a closed sender instead of
// over-reporting forever. Close is idempotent; concurrent callers return
// only once the shutdown (including the discard sweep) has completed.
func (s *Sender[T]) Close() {
	s.once.Do(func() {
		// Every Enqueue that got an item into the ring did so before this
		// hold; every later one sees closed. So after the drain exits, the
		// sweep below is the last writer of the ring and the gauge.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.signal()
		s.wg.Wait()
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

// drain is the pacing loop: a virtual transmission clock advances by each
// item's serialization time; the loop sleeps whenever the clock runs ahead
// of real time. This is equivalent to a token bucket with zero burst, which
// is what "never exceed the upload capability" requires. The clock restarts
// from now only when the uplink went idle — a release emptied the ring — as
// simnet's uplink does (start = max(now, uplinkFreeAt)); a backlogged sender
// keeps its clock, so a late timer or a slow flush is made up by the items
// behind it instead of lost for good. A
// SetRate during the sleep re-paces the item: the waited time counts against
// the new serialization time, so rate increases release the item early and
// decreases extend the wait.
//
// The loop paces on the head item, which stays in the ring until it is
// released; then, in one hold of the lock, it takes that item and every
// further one whose serialization time has also already elapsed — all of
// them, when the rate is unlimited — up to batchMax, and flushes the run as
// one batch outside the lock.
func (s *Sender[T]) drain() {
	defer s.wg.Done()
	batch := make([]T, 0, s.batchMax)
	var (
		txClock time.Time   // when the uplink becomes free
		timer   *time.Timer // the loop's one timer, re-armed per paced wait
		idle    = true      // the ring was seen empty since the last release
	)
	for {
		s.mu.Lock()
		for s.n == 0 && !s.closed {
			s.parked = true
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		if s.closed {
			s.mu.Unlock()
			return // Close sweeps the ring
		}
		size := s.ring[s.head].size
		s.mu.Unlock()

		var now time.Time
		rate := s.rateBps.Load()
		if rate <= 0 {
			idle = true // unlimited keeps no clock: pacing restarts from now
		} else {
			now = time.Now()
			if idle && txClock.Before(now) {
				txClock = now
			}
			idle = false
			deadline := txClock.Add(serialization(size, rate))
			if wait := deadline.Sub(now); wait > 0 {
				// go 1.23+ timers: Reset on a stopped or fired timer needs
				// no drain, and a Stop-ped timer leaves nothing in its channel.
				if timer == nil {
					timer = time.NewTimer(wait)
				} else {
					timer.Reset(wait)
				}
				select {
				case <-timer.C:
					now = time.Now()
				case <-s.wake:
					// SetRate or Close: recheck, and re-pace the head from
					// the same clock base — time already waited is not
					// re-charged.
					timer.Stop()
					continue
				}
			}
			txClock = deadline
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		batch = append(batch[:0], s.pop().item)
		batchBytes := size
		for s.n > 0 && len(batch) < s.batchMax {
			next := s.ring[s.head]
			if rate > 0 {
				deadline := txClock.Add(serialization(next.size, rate))
				if deadline.After(now) {
					break // still owes serialization time: paced next round
				}
				txClock = deadline
			}
			s.pop()
			batch = append(batch, next.item)
			batchBytes += next.size
		}
		idle = s.n == 0
		s.mu.Unlock()
		s.bytes.Add(batchBytes)
		s.flush(batch)
		s.sent.Add(int64(len(batch)))
		s.queued.Add(-batchBytes)
	}
}

// serialization is the time size bytes occupy an uplink of rate bits/s.
func serialization(size, rate int64) time.Duration {
	return time.Duration(size * 8 * int64(time.Second) / rate)
}
