package core

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// propIDSpace spans several 64-id state lines and lies past the presize the
// even seeds start from, so growth is exercised.
const propIDSpace = 300

// oracleEntry is the reference model of one id: its state plus the record
// fields that state gives meaning to.
type oracleEntry struct {
	state        uint8
	proposers    [maxProposersTracked]wire.NodeID
	numProposers uint8
	attempts     uint16
	recvAt       time.Duration
	stamp        int64
	payload      []byte
}

// TestPacketTableMatchesOracle runs seeded random life-cycle sequences — the
// transitions the engine makes — against a map oracle and compares every id's
// state, its pending or buffered record, and both counts after every step.
func TestPacketTableMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab packetTable
		if seed%2 == 0 {
			tab.presize(64) // half the runs start presized, half grow from zero
		}
		oracle := map[wire.PacketID]*oracleEntry{}
		get := func(id wire.PacketID) *oracleEntry {
			if oracle[id] == nil {
				oracle[id] = &oracleEntry{}
			}
			return oracle[id]
		}
		deliver := func(id wire.PacketID) {
			o := get(id)
			*o = oracleEntry{
				state:   pktBuffered,
				recvAt:  time.Duration(rng.Intn(1000)) * time.Millisecond,
				stamp:   rng.Int63(),
				payload: []byte{byte(id)},
			}
			s := tab.set(id, pktBuffered)
			s.recvAt, s.stamp, s.payload = o.recvAt, o.stamp, o.payload
		}
		for op := 0; op < 1500; op++ {
			id := wire.PacketID(rng.Intn(propIDSpace))
			o := get(id)
			switch rng.Intn(6) {
			case 0: // fresh request, as onPropose makes for an unknown id
				if o.state == pktUnknown {
					from := wire.NodeID(rng.Intn(100))
					*o = oracleEntry{state: pktPending, numProposers: 1, attempts: 1}
					o.proposers[0] = from
					s := tab.set(id, pktPending)
					s.proposers[0], s.numProposers, s.attempts = from, 1, 1
				}
			case 1: // alternate proposer plus a retry, through the record
				if o.state == pktPending {
					s := &tab.slots[id]
					if int(s.numProposers) < maxProposersTracked {
						p := wire.NodeID(rng.Intn(100))
						s.proposers[s.numProposers] = p
						s.numProposers++
						o.proposers[o.numProposers] = p
						o.numProposers++
					}
					s.attempts++
					o.attempts++
				}
			case 2: // give-up after the last attempt
				if o.state == pktPending {
					*o = oracleEntry{}
					tab.set(id, pktUnknown)
				}
			case 3: // delivery from pending
				if o.state == pktPending {
					deliver(id)
				}
			case 4: // delivery from unknown (a Serve nobody requested, or Publish)
				if o.state == pktUnknown {
					deliver(id)
				}
			case 5: // age-based prune, as pruneBuffer applies it
				cutoff := time.Duration(rng.Intn(1000)) * time.Millisecond
				tab.prune(cutoff)
				for _, e := range oracle {
					if e.state == pktBuffered && e.recvAt < cutoff {
						*e = oracleEntry{state: pktDelivered}
					}
				}
			}
			checkPacketTable(t, seed, op, &tab, oracle)
		}
	}
}

func checkPacketTable(t *testing.T, seed int64, op int, tab *packetTable, oracle map[wire.PacketID]*oracleEntry) {
	t.Helper()
	var pending, buffered int
	for id := wire.PacketID(0); id < propIDSpace+64; id++ {
		o := oracle[id]
		if o == nil {
			o = &oracleEntry{}
		}
		if got := tab.stateOf(id); got != o.state {
			t.Fatalf("seed %d op %d: stateOf(%d) = %d, oracle %d", seed, op, id, got, o.state)
		}
		switch o.state {
		case pktPending:
			pending++
			s := &tab.slots[id]
			if s.proposers != o.proposers || s.numProposers != o.numProposers || s.attempts != o.attempts {
				t.Fatalf("seed %d op %d: pending record %d = %+v, oracle %+v", seed, op, id, *s, *o)
			}
		case pktBuffered:
			buffered++
			s := &tab.slots[id]
			if s.recvAt != o.recvAt || s.stamp != o.stamp || len(s.payload) != 1 || s.payload[0] != o.payload[0] {
				t.Fatalf("seed %d op %d: buffered record %d = %+v, oracle %+v", seed, op, id, *s, *o)
			}
		}
	}
	if tab.pending != pending || tab.buffered != buffered {
		t.Fatalf("seed %d op %d: counts pending %d buffered %d, oracle %d and %d",
			seed, op, tab.pending, tab.buffered, pending, buffered)
	}
}

// TestPacketSlotSizePinned: a slot holds a pending id's proposers and attempts
// beside a buffered id's receive time, stamp and payload — 64 bytes, one cache
// line, which must not grow.
func TestPacketSlotSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(packetSlot{}); got != 64 {
		t.Fatalf("packetSlot is %d bytes, want 64", got)
	}
}
