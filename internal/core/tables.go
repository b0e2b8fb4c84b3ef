package core

import "repro/internal/wire"

// Packet ids are assigned densely in publish order (internal/stream), so the
// engine's per-packet bookkeeping lives in flat slices indexed by id instead
// of maps. Each id moves through one life cycle — unknown, requested,
// delivered and buffered for serving, pruned — so one state byte and one slot
// per id hold it, plus a pooled record for the few ids pending at once. The
// table is sized once from the stream geometry (StreamConfig.ExpectedPackets)
// and grows transparently past it, so the steady-state hot path neither
// hashes nor allocates.

// Packet states. The order matters: an id is delivered iff its state is at
// least pktDelivered, and every state from pktBuffered up is buffered, the
// byte carrying the id's prune epoch (pktBuffered+epoch, see bufferedState).
const (
	pktUnknown   uint8 = iota // never requested, or abandoned after a give-up
	pktPending                // requested; the slot points at a pendingRec
	pktDelivered              // delivered and pruned from the serve buffer
	pktBuffered               // delivered; the slot holds the payload for serving
)

// pruneEpochs is how many prune epochs a buffered state byte tells apart.
// Epochs are tick numbers of the engine's prune ticker taken mod
// pruneEpochs; an id waits at most five ticks (see Engine.pruneEpoch), far
// inside the half range prune compares within.
const pruneEpochs = 256 - int(pktBuffered)

// bufferedState is the state byte of an id buffered until prune tick epoch
// (mod pruneEpochs).
func bufferedState(epoch int) uint8 { return pktBuffered + uint8(epoch%pruneEpochs) }

// packetSlot is one id's slot, 24 bytes: stamp and payload while the id is
// buffered. A pending id needs neither, so its stamp word holds the index of
// its pendingRec in the table's pool instead; read that only through
// recIndex. The id and the stream are the slot's position and its table, and
// a buffered id's prune epoch is its state byte, so none of them is stored.
//
// payload is a read-only view of the received payload bytes, not a copy:
// a string's 16-byte header over the same backing array (deliverLocal makes
// it with unsafe.String, onRequest turns it back with unsafe.Slice). That is
// sound because a Serve's payload bytes are immutable once received (see
// wire.Message), and it saves the 8-byte capacity word a slice would carry.
type packetSlot struct {
	stamp   int64 // buffered: publish stamp; pending: pool index
	payload string
}

// recIndex reads a pending slot's stamp word as its pool index.
func (s *packetSlot) recIndex() int32 { return int32(s.stamp) }

// pendingRec is what retransmission needs of a requested, undelivered id: its
// proposers (a fixed-size array, maxProposersTracked) and the attempt count.
// Records live in a per-table pool with a free list, grown on demand and never
// presized: the pool only ever holds as many records as the node had ids
// pending at once, and a pending id reaches its record through its slot's
// stamp word. Measured per node at seed 17: the benchmark's sim-paper
// cell peaks at 119 records (median 86) of 3,410 ids, sim-large at 166
// (median 53) of 330.
type pendingRec struct {
	proposers    [maxProposersTracked]wire.NodeID
	numProposers uint8
	attempts     uint16
}

// packetTable is one stream's per-packet state: a state byte per id in its
// own array, so the "already delivered?" check on every proposed id reads 64
// ids per cache line, a parallel slot array reached only for pending and
// buffered ids, and the pool of pending records.
type packetTable struct {
	state    []uint8
	slots    []packetSlot
	recs     []pendingRec
	free     []int32 // indices of unused recs
	pending  int     // ids in pktPending, each holding one rec
	buffered int     // ids in a buffered state
}

// presize reserves ids [0, n) in the unknown state.
func (t *packetTable) presize(n int) {
	if n > len(t.state) {
		t.grow(n)
	}
}

func (t *packetTable) grow(n int) {
	t.state = append(t.state, make([]uint8, n-len(t.state))...)
	t.slots = append(t.slots, make([]packetSlot, n-len(t.slots))...)
}

// stateOf returns id's state; ids past the table are unknown.
func (t *packetTable) stateOf(id wire.PacketID) uint8 {
	if id < wire.PacketID(len(t.state)) {
		return t.state[id]
	}
	return pktUnknown
}

// delivered reports whether id has been delivered (buffered or pruned since).
func (t *packetTable) delivered(id wire.PacketID) bool {
	return t.stateOf(id) >= pktDelivered
}

// rec returns the pending record of id, which must be in pktPending. The
// pointer is valid until the next set.
func (t *packetTable) rec(id wire.PacketID) *pendingRec {
	return &t.recs[t.slots[id].recIndex()]
}

// set moves id to state s, keeping the pending and buffered counts, and
// returns its slot zeroed for the new state to fill. Leaving pktPending
// returns the id's record to the pool; entering it takes a zeroed record from
// the pool, which rec then reaches.
func (t *packetTable) set(id wire.PacketID, s uint8) *packetSlot {
	if id >= wire.PacketID(len(t.state)) {
		t.grow(int(id) + 1)
	}
	slot := &t.slots[id]
	if t.state[id] == pktPending {
		t.free = append(t.free, slot.recIndex())
	}
	t.count(t.state[id], -1)
	t.count(s, 1)
	t.state[id] = s
	*slot = packetSlot{}
	if s == pktPending {
		slot.stamp = int64(t.takeRec())
	}
	return slot
}

// takeRec returns the index of a zeroed record, reusing a freed one if any.
func (t *packetTable) takeRec() int32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.recs[i] = pendingRec{}
		return i
	}
	t.recs = append(t.recs, pendingRec{})
	return int32(len(t.recs) - 1)
}

func (t *packetTable) count(s uint8, d int) {
	switch {
	case s == pktPending:
		t.pending += d
	case s >= pktBuffered:
		t.buffered += d
	}
}

// prune moves every buffered id whose epoch is at most tick (mod
// pruneEpochs, within half the range) to pktDelivered, releasing its
// payload, walking ids in ascending order. A pruned id stays delivered: a
// late Serve for it is a duplicate, not a second delivery.
func (t *packetTable) prune(tick int) {
	for id, s := range t.state {
		if s >= pktBuffered && (tick-int(s-pktBuffered)+pruneEpochs)%pruneEpochs <= pruneEpochs/2 {
			t.set(wire.PacketID(id), pktDelivered)
		}
	}
}
