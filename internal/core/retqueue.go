package core

import (
	"math/bits"
	"time"

	"repro/internal/wire"
)

// retQueue is one stream's retransmission deadline queue: the batches of ids
// requested together, each with the time its timeout expires. RetPeriod is
// constant, so batches are pushed in deadline order, the queue drains FIFO,
// and the stream's single timer only ever covers the head. A head batch
// whose ids have all been delivered is popped before its deadline
// (popDelivered), so the queue holds batches from the oldest one still
// waiting for an id onward, and the timer is armed only for those. The
// batches and their ids (back to back, in batch order) live in two
// power-of-two rings that grow, to the next power of two that fits, only
// when full: past the minimum lengths below, a queue holds less than twice
// its peak outstanding ids and batches, and a steady outstanding count
// allocates nothing.
//
// The id ring holds uint32s, half a PacketID: every queued id was requested,
// and onPropose requests no id at or past maxTrackedPacketID (2²²). Should
// that bound ever pass 2³², the ring must store ids relative to the stream's
// window base instead.
type retQueue struct {
	batches     []retEntry // ring; its length is 0 or a power of two
	bHead, bLen int
	ids         []uint32 // ring; its length is 0 or a power of two
	iHead, iLen int
	scratch     []uint32 // the head batch made contiguous when it wraps
	settled     int      // leading ids of the head batch known delivered
}

// The id ring's uint32s hold every id onPropose requests.
const _ = uint32(maxTrackedPacketID - 1)

// The rings' minimum lengths. A stream that requests at all mostly peaks
// past them, delivered batches popped early or not: at seed 17 the median
// node's queue peaks at 124 batches of 292 ids on the benchmark's sim-paper
// cell and at 24 batches of 73 ids on sim-large (the blocking head is a
// batch that lost an id, which holds the queue for RetPeriod). Starting
// there skips the smallest growth steps.
const (
	retMinBatches = 16
	retMinIDs     = 64
)

// retEntry is one queued batch: its id count and when its timeout expires.
type retEntry struct {
	due time.Duration
	n   int
}

// empty reports whether no batch is queued.
func (q *retQueue) empty() bool { return q.bLen == 0 }

// headDue returns the head batch's deadline; the queue must not be empty.
func (q *retQueue) headDue() time.Duration { return q.batches[q.bHead].due }

// push appends a batch of ids due at due, copying the ids; each must be below
// maxTrackedPacketID.
func (q *retQueue) push(due time.Duration, ids []wire.PacketID) {
	if q.bLen == len(q.batches) {
		q.batches = growRing(q.batches, q.bHead, q.bLen, max(q.bLen+1, retMinBatches))
		q.bHead = 0
	}
	q.batches[(q.bHead+q.bLen)&(len(q.batches)-1)] = retEntry{due: due, n: len(ids)}
	q.bLen++
	if q.iLen+len(ids) > len(q.ids) {
		q.ids = growRing(q.ids, q.iHead, q.iLen, max(q.iLen+len(ids), retMinIDs))
		q.iHead = 0
	}
	mask := len(q.ids) - 1
	for i, id := range ids {
		q.ids[(q.iHead+q.iLen+i)&mask] = uint32(id)
	}
	q.iLen += len(ids)
}

// head returns the head batch's ids, contiguous and narrowed to uint32: a
// view of the ring, or of scratch when the batch wraps. The queue must not
// be empty. The view stays valid across pushes — the batch's space is
// released only by pop, and a growth copies the ring rather than writing the
// old one — until the next pop.
func (q *retQueue) head() []uint32 {
	lo, n := q.iHead, q.batches[q.bHead].n
	if lo+n <= len(q.ids) {
		return q.ids[lo : lo+n : lo+n]
	}
	q.scratch = append(append(q.scratch[:0], q.ids[lo:]...), q.ids[:lo+n-len(q.ids)]...)
	return q.scratch
}

// pop releases the head batch; the queue must not be empty.
func (q *retQueue) pop() {
	n := q.batches[q.bHead].n
	q.bHead = (q.bHead + 1) & (len(q.batches) - 1)
	q.bLen--
	q.iHead = (q.iHead + n) & (len(q.ids) - 1)
	q.iLen -= n
	q.settled = 0
}

// popDelivered pops every head batch whose ids t holds as delivered (state
// at least pktDelivered), stopping at the first batch with an id that is
// not. Such a batch does nothing at its deadline: retransmit skips every id
// that is not pending. Only delivered settles a batch, not "not pending": an
// abandoned (unknown) id turns pending again when it is proposed anew, and
// delivered is the one state no id leaves, so each id is read once while its
// batch is the head (settled counts them), however often this is called.
func (q *retQueue) popDelivered(t *packetTable) {
	for q.bLen > 0 {
		n, mask := q.batches[q.bHead].n, len(q.ids)-1
		for ; q.settled < n; q.settled++ {
			if !t.delivered(wire.PacketID(q.ids[(q.iHead+q.settled)&mask])) {
				return
			}
		}
		q.pop()
	}
}

// growRing returns a ring of the smallest power-of-two length holding need
// elements, with the n elements of r from head copied to its start.
func growRing[T any](r []T, head, n, need int) []T {
	out := make([]T, 1<<bits.Len(uint(need-1)))
	k := copy(out[:n], r[head:])
	copy(out[k:n], r)
	return out
}
