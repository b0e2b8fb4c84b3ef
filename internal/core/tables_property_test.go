package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
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
	epoch        int // buffered: the prune tick that releases it, not wrapped
	stamp        int64
	payload      []byte
}

// TestPacketTableMatchesOracle runs seeded random life-cycle sequences — the
// transitions the engine makes — against a map oracle and compares every id's
// state, its pending or buffered record, and both counts after every step. A
// buffered payload must read back equal to the delivered bytes and be a view
// of their backing array. Prunes run ticks as pruneBuffer does, one number
// after another, and the oracle releases by the unwrapped tick number: each
// seed runs ~500 ticks, so the epochs wrap past pruneEpochs at least once.
func TestPacketTableMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab packetTable
		if seed%2 == 0 {
			tab.presize(64) // half the runs start presized, half grow from zero
		}
		oracle := map[wire.PacketID]*oracleEntry{}
		tick := 0 // the next prune tick's number
		get := func(id wire.PacketID) *oracleEntry {
			if oracle[id] == nil {
				oracle[id] = &oracleEntry{}
			}
			return oracle[id]
		}
		deliver := func(id wire.PacketID) {
			o := get(id)
			epoch := tick + rng.Intn(6) // at most five ticks away, as pruneEpoch makes it
			*o = oracleEntry{
				state:   bufferedState(epoch),
				epoch:   epoch,
				stamp:   rng.Int63(),
				payload: bytes.Repeat([]byte{byte(id)}, 1+rng.Intn(3)),
			}
			s := tab.set(id, o.state)
			s.stamp = o.stamp
			s.payload = unsafe.String(unsafe.SliceData(o.payload), len(o.payload)) // as deliverLocal stores it
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
					tab.set(id, pktPending)
					r := tab.rec(id)
					r.proposers[0], r.numProposers, r.attempts = from, 1, 1
				}
			case 1: // alternate proposer plus a retry, through the record
				if o.state == pktPending {
					r := tab.rec(id)
					if int(r.numProposers) < maxProposersTracked {
						p := wire.NodeID(rng.Intn(100))
						r.proposers[r.numProposers] = p
						r.numProposers++
						o.proposers[o.numProposers] = p
						o.numProposers++
					}
					r.attempts++
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
			case 5: // one to three prune ticks, as pruneBuffer runs them
				for n := 1 + rng.Intn(3); n > 0; n-- {
					tab.prune(tick % pruneEpochs)
					for _, e := range oracle {
						if e.state >= pktBuffered && e.epoch <= tick {
							*e = oracleEntry{state: pktDelivered}
						}
					}
					tick++
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
		switch {
		case o.state == pktPending:
			pending++
			r := tab.rec(id)
			if r.proposers != o.proposers || r.numProposers != o.numProposers || r.attempts != o.attempts {
				t.Fatalf("seed %d op %d: pending record %d = %+v, oracle %+v", seed, op, id, *r, *o)
			}
		case o.state >= pktBuffered:
			buffered++
			s := &tab.slots[id]
			if s.stamp != o.stamp || s.payload != string(o.payload) {
				t.Fatalf("seed %d op %d: buffered record %d = %+v, oracle %+v", seed, op, id, *s, *o)
			}
			// The slot views the delivered bytes; it holds no copy.
			if unsafe.StringData(s.payload) != unsafe.SliceData(o.payload) {
				t.Fatalf("seed %d op %d: buffered payload of %d is not a view of the delivered bytes", seed, op, id)
			}
		}
	}
	if tab.pending != pending || tab.buffered != buffered {
		t.Fatalf("seed %d op %d: counts pending %d buffered %d, oracle %d and %d",
			seed, op, tab.pending, tab.buffered, pending, buffered)
	}
	if err := checkRecPool(tab); err != nil {
		t.Fatalf("seed %d op %d: %v", seed, op, err)
	}
}

// checkRecPool checks the pending-record pool against the state bytes: every
// record is either free or held by exactly one pending id, so the live count
// equals pending, and every pending id's index is in range and unique.
func checkRecPool(tab *packetTable) error {
	if live := len(tab.recs) - len(tab.free); live != tab.pending {
		return fmt.Errorf("%d live pool records (%d, %d free), %d pending", live, len(tab.recs), len(tab.free), tab.pending)
	}
	used := make(map[int32]bool, len(tab.recs))
	for _, i := range tab.free {
		if i < 0 || int(i) >= len(tab.recs) || used[i] {
			return fmt.Errorf("free list holds index %d out of range or twice", i)
		}
		used[i] = true
	}
	for id, s := range tab.state {
		if s != pktPending {
			continue
		}
		i := tab.slots[id].recIndex()
		if i < 0 || int(i) >= len(tab.recs) || used[i] {
			return fmt.Errorf("pending id %d holds index %d: out of range, free, or another id's", id, i)
		}
		used[i] = true
	}
	return nil
}

// TestPacketSlotSizePinned: a slot holds a buffered id's stamp and payload
// view — one 8-byte word and a string header, 24 bytes on a 64-bit GOARCH and
// 16 on a 32-bit one, which must not grow; a buffered id's prune epoch is its
// state byte, and a pending id's proposers and attempts live in the pool.
func TestPacketSlotSizePinned(t *testing.T) {
	want := unsafe.Sizeof(int64(0)) + unsafe.Sizeof("")
	if got := unsafe.Sizeof(packetSlot{}); got != want {
		t.Fatalf("packetSlot is %d bytes, want %d", got, want)
	}
}

// TestPacketTableBytesPerID: a presized id costs its state byte and its slot,
// 25 bytes, and requesting then delivering ids at a steady in-flight count
// allocates nothing once the pool has grown to that count.
func TestPacketTableBytesPerID(t *testing.T) {
	const n = 10_000
	var tab packetTable
	if got := allocBytes(func() { tab.presize(n) }); got > 25*n+8192 && !raceBuild {
		t.Fatalf("presize(%d) allocated %d bytes, %.1f per id; want <= 25 plus a page", n, got, float64(got)/n)
	}
	const inFlight = 32
	cycle := func(id wire.PacketID) {
		if id >= inFlight {
			tab.set(id-inFlight, bufferedState(int(id))).stamp = int64(id)
		}
		tab.set(id, pktPending)
		tab.rec(id).attempts = 1
	}
	next := wire.PacketID(0)
	for ; next < 2*inFlight; next++ { // warm-up grows the pool to inFlight
		cycle(next)
	}
	if got := allocBytes(func() {
		for end := next + 1000; next < end; next++ {
			cycle(next)
		}
	}); got != 0 {
		t.Fatalf("1,000 pending-to-buffered cycles allocated %d bytes, want 0", got)
	}
	if tab.pending != inFlight || len(tab.recs) != inFlight {
		t.Fatalf("%d pending, %d pool records; want %d each", tab.pending, len(tab.recs), inFlight)
	}
}

// allocBytes returns the heap bytes fn allocates. It runs on one P, as
// testing.AllocsPerRun does: with more, ReadMemStats' own stop-the-world
// can allocate inside the measurement on a loaded host — a 96-byte sudog
// when a concurrent GC holds the world semaphore, or a new M for an idle P
// when the world restarts.
func allocBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
