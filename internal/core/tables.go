package core

import (
	"time"

	"repro/internal/wire"
)

// Packet ids are assigned densely in publish order (internal/stream), so the
// engine's per-packet bookkeeping lives in flat slices indexed by id instead
// of maps. Each id moves through one life cycle — unknown, requested,
// delivered and buffered for serving, pruned — so one state byte and one
// record per id hold all of it. The table is sized once from the stream
// geometry (Config.ExpectedPackets) and grows transparently past it, so the
// steady-state hot path neither hashes nor allocates.

// Packet states. The order matters: an id is delivered iff its state is at
// least pktBuffered.
const (
	pktUnknown   uint8 = iota // never requested, or abandoned after a give-up
	pktPending                // requested; the slot holds proposers and attempts
	pktBuffered               // delivered; the slot holds the payload for serving
	pktDelivered              // delivered and pruned from the serve buffer
)

// packetSlot is one id's record: proposers, numProposers and attempts while
// the id is pending, recvAt, stamp and payload while it is buffered. The id
// and the stream are the slot's position and its table, so they are not
// stored. Proposers live in a fixed-size array (maxProposersTracked) so slots
// are plain values with no per-id allocation; the layout is 64 bytes.
type packetSlot struct {
	proposers    [maxProposersTracked]wire.NodeID
	numProposers uint8
	attempts     uint16
	recvAt       time.Duration
	stamp        int64
	payload      []byte
}

// packetTable is one stream's per-packet state: a state byte per id in its
// own array, so the "already delivered?" check on every proposed id reads 64
// ids per cache line, and a parallel slot array reached only for pending and
// buffered ids.
type packetTable struct {
	state    []uint8
	slots    []packetSlot
	pending  int // ids in pktPending
	buffered int // ids in pktBuffered
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
	return t.stateOf(id) >= pktBuffered
}

// set moves id to state s, keeping the pending and buffered counts, and
// returns its record zeroed for the new state to fill.
func (t *packetTable) set(id wire.PacketID, s uint8) *packetSlot {
	if id >= wire.PacketID(len(t.state)) {
		t.grow(int(id) + 1)
	}
	t.count(t.state[id], -1)
	t.count(s, 1)
	t.state[id] = s
	slot := &t.slots[id]
	*slot = packetSlot{}
	return slot
}

func (t *packetTable) count(s uint8, d int) {
	switch s {
	case pktPending:
		t.pending += d
	case pktBuffered:
		t.buffered += d
	}
}

// prune moves every buffered id received before cutoff to pktDelivered,
// releasing its payload, walking ids in ascending order. A pruned id stays
// delivered: a late Serve for it is a duplicate, not a second delivery.
func (t *packetTable) prune(cutoff time.Duration) {
	for id, s := range t.state {
		if s == pktBuffered && t.slots[id].recvAt < cutoff {
			t.set(wire.PacketID(id), pktDelivered)
		}
	}
}
