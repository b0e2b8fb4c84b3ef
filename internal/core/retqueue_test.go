package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// retModel is the plain-slice reference for retQueue: the queued batches in
// order, each with its deadline.
type retModel struct {
	dues  []time.Duration
	ids   [][]wire.PacketID
	total int
}

// TestRetQueueMatchesModel runs seeded random push/drain sequences against a
// plain-slice model: batches come out in FIFO order with their ids and
// deadlines, including batches that wrap around the ring's end, and a drain
// re-arms into the queue while it reads the head, as retFire does, growing
// the rings under the batch it holds. Ids run up to maxTrackedPacketID-1,
// the largest onPropose requests, and come back from the uint32 ring
// unchanged. After every step each ring's length
// is the peak outstanding count (ids or batches) rounded up to a power of
// two — below twice that peak — or the ring's minimum length if larger.
func TestRetQueueMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q retQueue
		var m retModel
		next := wire.PacketID(0)
		peakIDs, peakBatches := 0, 0
		batch := func(n int) []wire.PacketID {
			b := make([]wire.PacketID, n)
			for i := range b {
				switch rng.Intn(4) {
				case 0:
					b[i] = maxTrackedPacketID - 1
				case 1:
					b[i] = maxTrackedPacketID - 1 - wire.PacketID(rng.Intn(1<<16))
				default:
					b[i] = next
					next++
				}
			}
			return b
		}
		widen := func(ids []uint32) []wire.PacketID {
			out := make([]wire.PacketID, len(ids))
			for i, id := range ids {
				out[i] = wire.PacketID(id)
			}
			return out
		}
		push := func(due time.Duration, ids []wire.PacketID) {
			q.push(due, ids)
			m.dues = append(m.dues, due)
			m.ids = append(m.ids, slices.Clone(ids))
			m.total += len(ids)
			peakIDs, peakBatches = max(peakIDs, m.total), max(peakBatches, len(m.dues))
		}
		now := time.Duration(0)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 || len(m.dues) == 0 {
				now += time.Duration(rng.Intn(3))
				push(now, batch(1+rng.Intn(9)))
			} else {
				// Drain one head batch; re-arm a random part of it behind
				// itself before releasing it.
				if q.empty() || q.headDue() != m.dues[0] {
					t.Fatalf("seed %d op %d: head due %v, model %v", seed, op, q.headDue(), m.dues[0])
				}
				head := q.head()
				if !slices.Equal(widen(head), m.ids[0]) {
					t.Fatalf("seed %d op %d: head batch %v, model %v", seed, op, head, m.ids[0])
				}
				for range rng.Intn(3) {
					lo := rng.Intn(len(head))
					push(now+5, widen(head[lo:lo+1+rng.Intn(len(head)-lo)]))
				}
				if !slices.Equal(widen(head), m.ids[0]) {
					t.Fatalf("seed %d op %d: re-arming changed the head batch to %v, model %v", seed, op, head, m.ids[0])
				}
				q.pop()
				m.total -= len(m.ids[0])
				m.dues, m.ids = m.dues[1:], m.ids[1:]
			}
			if q.empty() != (len(m.dues) == 0) || q.bLen != len(m.dues) || q.iLen != m.total {
				t.Fatalf("seed %d op %d: %d batches of %d ids, model %d of %d", seed, op, q.bLen, q.iLen, len(m.dues), m.total)
			}
			wantIDs, wantBatches := max(retMinIDs, 1<<bits.Len(uint(peakIDs-1))), max(retMinBatches, 1<<bits.Len(uint(peakBatches-1)))
			if len(q.ids) != wantIDs || len(q.batches) != wantBatches {
				t.Fatalf("seed %d op %d: rings of %d ids and %d batches, peaks %d and %d", seed, op, len(q.ids), len(q.batches), peakIDs, peakBatches)
			}
		}
	}
}

// TestRetQueueSteadyStateAllocatesNothing: once the rings have grown to a
// steady outstanding count, pushing and draining batches — wrapped ones
// included — allocates nothing.
func TestRetQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q retQueue
	ids := []wire.PacketID{1, 2, 3, 4, maxTrackedPacketID - 1}
	cycle := func() {
		q.push(0, ids)
		if got := q.head(); len(got) != len(ids) {
			t.Fatalf("head batch of %d ids, want %d", len(got), len(ids))
		}
		q.pop()
	}
	for range 3 {
		q.push(0, ids)
	}
	for range retMinIDs { // every rotation offset, so head has met a wrapped batch
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady push/drain cycle allocated %v objects, want 0", allocs)
	}
	if len(q.ids) != retMinIDs || len(q.batches) != retMinBatches {
		t.Fatalf("rings of %d ids and %d batches, want the minimums %d and %d", len(q.ids), len(q.batches), retMinIDs, retMinBatches)
	}
}

// TestRetQueuePopDelivered: popDelivered pops head batches whose ids are all
// delivered, buffered or pruned, and stops at the first batch holding an id
// that is pending or unknown (abandoned), however many settled batches
// follow it.
func TestRetQueuePopDelivered(t *testing.T) {
	var q retQueue
	var tab packetTable
	tab.presize(16)
	for _, b := range [][]wire.PacketID{{1, 2}, {3}, {4, 5}, {6}, {7}} {
		for _, id := range b {
			tab.set(id, pktPending)
		}
		q.push(0, b)
	}
	head := func() []wire.PacketID {
		if q.empty() {
			return nil
		}
		var out []wire.PacketID
		for _, id := range q.head() {
			out = append(out, wire.PacketID(id))
		}
		return out
	}
	for _, step := range []struct {
		deliver []wire.PacketID
		state   uint8
		want    []wire.PacketID
	}{
		{nil, 0, []wire.PacketID{1, 2}},
		{[]wire.PacketID{2, 4, 5}, pktDelivered, []wire.PacketID{1, 2}},
		{[]wire.PacketID{1}, bufferedState(7), []wire.PacketID{3}},
		{[]wire.PacketID{6}, pktDelivered, []wire.PacketID{3}},
		{[]wire.PacketID{3}, bufferedState(0), []wire.PacketID{7}},
		{[]wire.PacketID{7}, pktUnknown, []wire.PacketID{7}},
	} {
		for _, id := range step.deliver {
			tab.set(id, step.state)
		}
		q.popDelivered(&tab)
		if got := head(); !slices.Equal(got, step.want) {
			t.Fatalf("after setting %v to state %d: head %v, want %v", step.deliver, step.state, got, step.want)
		}
	}
	tab.set(7, pktDelivered)
	if q.popDelivered(&tab); !q.empty() || q.iLen != 0 {
		t.Fatalf("%d batches of %d ids left once every id was delivered", q.bLen, q.iLen)
	}
}
