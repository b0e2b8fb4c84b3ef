// Package ratelimit implements the paper's application-level bandwidth
// throttling (§3.1): a token-bucket pacer with a FIFO queue in front of it.
// Nodes never push bursts that exceed their upload capacity; excess packets
// wait in the queue and leave as soon as bandwidth allows.
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
// Items queue FIFO; when the queue is full, Enqueue drops (tail drop) —
// a bounded variant of the paper's unbounded application queue.
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

	// queue is closed by Close, which is how an idle drain loop learns of
	// the shutdown: it parks on the queue alone rather than in a select over
	// queue and stop. Every channel a goroutine parks on takes a runtime
	// wait record from a cache that each collection partly empties, so one
	// channel instead of two halves the stray allocations of a busy sender.
	queue chan T
	wg    sync.WaitGroup
	stop  chan struct{}
	once  sync.Once
	// stopMu orders Enqueue against Close: Enqueue holds the read side
	// across its stop check and channel send, and Close closes stop and the
	// queue under the write side, so no send can hit the closed queue and no
	// item can slip in after Close's final sweep — every accepted item is
	// either transmitted or accounted as discarded, never stranded.
	stopMu sync.RWMutex
	// rateChanged wakes a drain loop sleeping on the old rate so SetRate
	// takes effect immediately, not after the current item finishes pacing.
	// Buffered with one slot: coalescing rapid rewrites is fine, the loop
	// always reloads the latest rate.
	rateChanged chan struct{}

	sent      atomic.Int64
	dropped   atomic.Int64
	bytes     atomic.Int64
	queued    atomic.Int64 // bytes accepted but not yet transmitted
	accepted  atomic.Int64 // bytes ever accepted (enqueue-counted, monotonic)
	discarded atomic.Int64 // bytes accepted but discarded undelivered by Close
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
		sizeOf:      sizeOf,
		flush:       flush,
		batchMax:    batchMax,
		queue:       make(chan T, queueCap),
		stop:        make(chan struct{}),
		rateChanged: make(chan struct{}, 1),
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
	select {
	case s.rateChanged <- struct{}{}:
	default: // a wakeup is already pending; the loop reloads the latest rate
	}
}

// Enqueue submits an item for paced transmission. It reports false when the
// queue is full (the item is dropped) or the sender is closed. Only
// queue-full rejections count into Dropped: a closed sender is not
// congestion, and charging its rejections there would pollute the
// tail-drop signal the adaptation layer reads.
func (s *Sender[T]) Enqueue(item T) bool {
	s.stopMu.RLock()
	defer s.stopMu.RUnlock()
	select {
	case <-s.stop:
		return false
	default:
	}
	// Charge the queue gauge before the channel send: an observer must never
	// see an accepted item missing from QueuedBytes (the drain loop debits
	// only after transmission, so the gauge errs toward over-reporting
	// pressure, never under-reporting it).
	size := int64(s.sizeOf(item))
	s.queued.Add(size)
	select {
	case s.queue <- item:
		s.accepted.Add(size)
		return true
	default:
		s.queued.Add(-size)
		s.dropped.Add(1)
		return false
	}
}

// Close stops the drain loop and waits for it to exit. Queued items are
// discarded — their bytes move from the queued gauge to DiscardedBytes, so
// QueuedBytes and QueueBacklog read zero on a closed sender instead of
// over-reporting forever. Close is idempotent; concurrent callers return
// only once the shutdown (including the discard sweep) has completed.
func (s *Sender[T]) Close() {
	s.once.Do(func() {
		// The write lock waits out Enqueues already past their stop check,
		// and any later Enqueue observes stop closed, so nothing sends on the
		// closed queue and after the sweep nothing can re-charge the gauge.
		s.stopMu.Lock()
		close(s.stop)
		close(s.queue)
		s.stopMu.Unlock()
		s.wg.Wait()
		for item := range s.queue {
			s.discardItem(item)
		}
	})
}

func (s *Sender[T]) discardItem(item T) {
	size := int64(s.sizeOf(item))
	s.queued.Add(-size)
	s.discarded.Add(size)
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

// QueueLen returns the instantaneous queue length.
func (s *Sender[T]) QueueLen() int { return len(s.queue) }

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
// is what "never exceed the upload capability" requires. A SetRate during
// the sleep re-paces the item: the waited time counts against the new
// serialization time, so rate increases release the item early and
// decreases extend the wait.
//
// After the clock releases an item, the loop opportunistically pulls every
// further queued item whose serialization time has also already elapsed —
// all of them, when the rate is unlimited — and flushes the run as one
// batch, up to batchMax. An item pulled ahead of its deadline is never sent
// early: it is carried to the next iteration and paced there, preserving
// FIFO order (the channel cannot be peeked).
func (s *Sender[T]) drain() {
	defer s.wg.Done()
	batch := make([]T, 0, s.batchMax)
	var (
		pending    T
		hasPending bool
		txClock    time.Time   // when the uplink becomes free
		timer      *time.Timer // the loop's one timer, re-armed per paced wait
	)
	for {
		var item T
		if hasPending {
			item, hasPending = pending, false
			var zero T
			pending = zero
		} else {
			var open bool
			if item, open = <-s.queue; !open {
				return
			}
		}
		select {
		case <-s.stop:
			s.discardItem(item) // Close sweeps whatever is still queued
			return
		default:
		}
		size := s.sizeOf(item)
		now := time.Now()
		if txClock.Before(now) {
			txClock = now
		}
	pace:
		for {
			rate := s.rateBps.Load()
			if rate <= 0 {
				break // unlimited: send immediately
			}
			ser := time.Duration(int64(size) * 8 * int64(time.Second) / rate)
			deadline := txClock.Add(ser)
			wait := time.Until(deadline)
			if wait <= 0 {
				txClock = deadline
				break
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
				txClock = deadline
				break pace
			case <-s.rateChanged:
				timer.Stop()
				// Recompute the deadline from the same clock base with
				// the new rate; time already waited is not re-charged.
			case <-s.stop:
				timer.Stop()
				// The item was popped but never sent: account it as
				// discarded so the queued gauge still balances to zero.
				s.discardItem(item)
				return
			}
		}
		batch = append(batch[:0], item)
		batchBytes := int64(size)
	fill:
		for len(batch) < s.batchMax {
			select {
			case next, open := <-s.queue:
				if !open {
					break fill
				}
				nsize := s.sizeOf(next)
				if rate := s.rateBps.Load(); rate > 0 {
					ser := time.Duration(int64(nsize) * 8 * int64(time.Second) / rate)
					deadline := txClock.Add(ser)
					if time.Until(deadline) > 0 {
						// next still owes serialization time: flush what the
						// clock has released, pace next on the coming round.
						pending, hasPending = next, true
						break fill
					}
					txClock = deadline
				}
				batch = append(batch, next)
				batchBytes += int64(nsize)
			default:
				break fill
			}
		}
		s.bytes.Add(batchBytes)
		s.flush(batch)
		s.sent.Add(int64(len(batch)))
		s.queued.Add(-batchBytes)
	}
}
