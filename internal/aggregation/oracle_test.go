package aggregation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

// stubRuntime is an env.Runtime with a hand-cranked clock: sends are
// recorded, and the one pending timer (the estimator's ticker) fires only
// when the test says so — late if the clock was advanced past it, which is
// what a simnet freeze does to a node.
type stubRuntime struct {
	id      wire.NodeID
	now     time.Duration
	rng     *rand.Rand
	timerAt time.Duration
	timerFn func()
	sent    []*wire.Aggregate
}

func (s *stubRuntime) ID() wire.NodeID    { return s.id }
func (s *stubRuntime) Now() time.Duration { return s.now }
func (s *stubRuntime) Rand() *rand.Rand   { return s.rng }
func (s *stubRuntime) Send(_ wire.NodeID, m wire.Message) {
	s.sent = append(s.sent, m.(*wire.Aggregate))
}
func (s *stubRuntime) AfterFunc(d time.Duration, fn func()) {
	s.timerAt, s.timerFn = s.now+d, fn
}

// fire runs the pending timer, moving the clock up to its due time first if
// it is not there yet.
func (s *stubRuntime) fire() {
	if s.now < s.timerAt {
		s.now = s.timerAt
	}
	s.sent = s.sent[:0]
	s.timerFn()
}

// fixedSampler always returns the first k of a fixed peer list.
type fixedSampler struct{}

func (fixedSampler) AppendPeers(dst []wire.NodeID, _ *rand.Rand, k int) []wire.NodeID {
	for i := 0; i < k; i++ {
		dst = append(dst, wire.NodeID(1000+i))
	}
	return dst
}

func (s fixedSampler) AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int) []wire.NodeID {
	return s.AppendPeers(dst, rng, kIntra+kInter)
}

// oracleShapes are the estimator settings the oracle runs under; the first
// header byte picks one. Zero fields take the package defaults.
var oracleShapes = []Config{
	{},                      // paper defaults: 200 ms, k 10, fanout 1, TTL 15 s
	{Period: time.Second},   // the slow-1s ablation cell
	{FreshestK: 3},          // the k3 ablation cell
	{Fanout: 3},             // the fanout3 ablation cell
	{FreshestK: 200},        // k larger than any table the ops can build
	{EntryTTL: time.Second}, // 5 periods of TTL: entries expire within a seed
	{Period: time.Second, EntryTTL: 300 * time.Millisecond}, // TTL shorter than a period
	{FreshestK: 1}, // a one-record set: every insert is at the boundary
}

var (
	oracleTrackLimits = []int{0, 0, 8, 16}
	// 20 is beyond both track limits; 40000 is past the table's ceiling.
	oracleSelfIDs = []wire.NodeID{0, 3, 20, 40000}
	// Ids outside [0, 28): hostile (negative, at and past the dense-table
	// ceiling), one valid but far from the rest, and the two largest valid
	// ids, whose links sit at the edge of an int16.
	oracleOddIDs = []wire.NodeID{-1, -7, maxTrackedNodeID, maxTrackedNodeID + 5, math.MaxInt32, 3000,
		maxTrackedNodeID - 2, maxTrackedNodeID - 1, 1 << 20}
	oracleAgeScales = []uint32{1, 10, 200, 1000, 15000, 1 << 24}
	oracleClockStep = []time.Duration{time.Millisecond, 10 * time.Millisecond, 200 * time.Millisecond,
		time.Second, 20 * time.Second, time.Hour}
)

// Oracle op codes (op byte modulo opCount).
const (
	opReceive = iota // n, then n × (id, cap, ageScale, age)
	opTick
	opAdvance // scale, steps
	opSetSelf // hi, lo
	opExclude // id
	opCount
)

type refEntry struct {
	capKbps uint32
	asOf    time.Duration
}

// oracle is the reference the estimator's index is checked against: a map
// and full scans, written from the protocol's rules and nothing else.
type oracle struct {
	cfg      Config // defaults applied
	self     wire.NodeID
	selfCap  uint32
	entries  map[wire.NodeID]refEntry
	excluded map[wire.NodeID]bool // nil when the run has no Exclude
}

func (o *oracle) tracked(id wire.NodeID) bool {
	return id >= 0 && id < maxTrackedNodeID && (o.cfg.TrackLimit <= 0 || int(id) < o.cfg.TrackLimit)
}

func (o *oracle) setSelf(now time.Duration) {
	if o.tracked(o.self) {
		o.entries[o.self] = refEntry{o.selfCap, now}
	}
}

func (o *oracle) receive(now time.Duration, entries []wire.CapEntry) {
	for _, in := range entries {
		if in.Node == o.self || !o.tracked(in.Node) || o.excluded[in.Node] {
			continue
		}
		asOf := now - time.Duration(in.AgeMs)*time.Millisecond
		if cur, ok := o.entries[in.Node]; ok && cur.asOf >= asOf {
			continue
		}
		o.entries[in.Node] = refEntry{in.CapKbps, asOf}
	}
}

// tick returns the message a tick at now must send (nil for none).
func (o *oracle) tick(now time.Duration) []wire.CapEntry {
	o.setSelf(now)
	for id, en := range o.entries {
		if id != o.self && (now-en.asOf > o.cfg.EntryTTL || o.excluded[id]) {
			delete(o.entries, id)
		}
	}
	var out []wire.CapEntry
	for _, id := range o.ranked() {
		en := o.entries[id]
		age := now - en.asOf
		if age < 0 {
			age = 0
		}
		out = append(out, wire.CapEntry{Node: id, CapKbps: en.capKbps, AgeMs: uint32(age / time.Millisecond)})
	}
	return out
}

// ranked returns the ids of the FreshestK newest entries in message order:
// asOf descending, id ascending on ties.
func (o *oracle) ranked() []wire.NodeID {
	ids := make([]wire.NodeID, 0, len(o.entries))
	for id := range o.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := o.entries[ids[i]], o.entries[ids[j]]
		if a.asOf != b.asOf {
			return a.asOf > b.asOf
		}
		return ids[i] < ids[j]
	})
	if len(ids) > o.cfg.FreshestK {
		ids = ids[:o.cfg.FreshestK]
	}
	return ids
}

func (o *oracle) estimate() float64 {
	if len(o.entries) == 0 {
		return float64(o.selfCap)
	}
	var sum uint64
	for _, en := range o.entries {
		sum += uint64(en.capKbps)
	}
	return float64(sum) / float64(len(o.entries))
}

// check compares everything the estimator exposes with the oracle.
func (o *oracle) check(t *testing.T, e *Estimator, step int, what string) {
	t.Helper()
	if got, want := e.KnownNodes(), len(o.entries); got != want {
		t.Fatalf("op %d (%s): KnownNodes %d, oracle %d", step, what, got, want)
	}
	want := o.estimate()
	if got := e.EstimateKbps(); got != want {
		t.Fatalf("op %d (%s): EstimateKbps %v, oracle %v", step, what, got, want)
	}
	wantRel := 1.0
	if want > 0 {
		wantRel = float64(o.selfCap) / want
	}
	if got := e.RelativeCapability(); got != wantRel {
		t.Fatalf("op %d (%s): RelativeCapability %v, oracle %v", step, what, got, wantRel)
	}
	if err := ringError(e); err != nil {
		t.Fatalf("op %d (%s): %v", step, what, err)
	}
	if !e.topValid {
		return // a member was dropped; the next tick refills before it reads
	}
	ranked := o.ranked()
	if len(e.top) != len(ranked) {
		t.Fatalf("op %d (%s): freshest-k set %+v, oracle ids %v", step, what, e.top, ranked)
	}
	for i, id := range ranked {
		if want := (freshRec{o.entries[id].asOf, id, o.entries[id].capKbps}); e.top[i] != want {
			t.Fatalf("op %d (%s): freshest-k set rank %d is %+v, oracle %+v\nset    %+v\noracle %v",
				step, what, i, e.top[i], want, e.top, ranked)
		}
	}
}

// ringError walks the ring oldest bucket first and reports the first breach
// of its structure: a table no longer than the int16 links can address,
// every present entry linked exactly once with consistent back links, in the
// bucket whose period holds its asOf (the oldest bucket also holding
// everything before it), no bucket ahead of the clock, and every absent id
// in the table holding an empty slot.
func ringError(e *Estimator) error {
	if len(e.slots) > maxTrackedNodeID || len(e.buckets) > maxBuckets {
		return fmt.Errorf("table of %d ids and ring of %d buckets, past the int16 links' reach", len(e.slots), len(e.buckets))
	}
	linked := make(map[int16]bool)
	n := len(e.buckets)
	if newest := e.oldest + time.Duration(n-1)*e.cfg.Period; newest > e.rt.Now() {
		return fmt.Errorf("newest bucket opens at %v, ahead of the clock (%v)", newest, e.rt.Now())
	}
	for i := 0; i < n; i++ {
		slot := (e.tail + i) % n
		opens := e.oldest + time.Duration(i)*e.cfg.Period
		for id, prev := e.buckets[slot], int16(-slot-1); id >= 0; id, prev = e.slots[id].next, id {
			s := e.slots[id]
			switch {
			case s.asOf == noEntry:
				return fmt.Errorf("bucket %d links absent entry %d", i, id)
			case linked[id]:
				return fmt.Errorf("entry %d linked twice", id)
			case s.prev != prev:
				return fmt.Errorf("entry %d in bucket %d has prev %d, want %d", id, i, s.prev, prev)
			case s.asOf >= opens+e.cfg.Period || i > 0 && s.asOf < opens:
				return fmt.Errorf("entry %d (asOf %v) is in bucket %d, which opens at %v", id, s.asOf, i, opens)
			}
			linked[id] = true
		}
	}
	if len(linked) != e.count {
		return fmt.Errorf("%d entries linked, %d present", len(linked), e.count)
	}
	for id, s := range e.slots {
		if s.asOf == noEntry && s != (capSlot{asOf: noEntry}) {
			return fmt.Errorf("absent id %d holds slot %+v", id, s)
		}
	}
	return nil
}

// runOracle decodes data into a configuration and an op sequence and runs
// it against an Estimator and the oracle side by side.
func runOracle(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfg := oracleShapes[int(next())%len(oracleShapes)]
	cfg.TrackLimit = oracleTrackLimits[int(next())%len(oracleTrackLimits)]
	self := oracleSelfIDs[int(next())%len(oracleSelfIDs)]
	cfg.SelfCapKbps = 700
	cfg.Sampler = fixedSampler{}
	o := &oracle{self: self, selfCap: cfg.SelfCapKbps, entries: map[wire.NodeID]refEntry{}}
	if next()&1 == 1 {
		o.excluded = map[wire.NodeID]bool{}
		cfg.Exclude = func(id wire.NodeID) bool { return o.excluded[id] }
	}
	o.cfg = cfg
	o.cfg.applyDefaults()

	rt := &stubRuntime{id: self, rng: rand.New(rand.NewSource(1))}
	e := NewEstimator(cfg)
	e.Start(rt)
	o.setSelf(rt.now)
	o.check(t, e, -1, "start")

	for step := 0; len(data) > 0; step++ {
		var what string
		switch next() % opCount {
		case opReceive:
			what = "receive"
			entries := make([]wire.CapEntry, 1+int(next())%10)
			for i := range entries {
				id := wire.NodeID(next())
				if id >= 224 {
					id = oracleOddIDs[int(id-224)%len(oracleOddIDs)]
				} else {
					id %= 28
				}
				capKbps := uint32(next()) * 37
				scale := oracleAgeScales[int(next())%len(oracleAgeScales)]
				entries[i] = wire.CapEntry{Node: id, CapKbps: capKbps, AgeMs: uint32(next()) * scale}
			}
			e.Receive(1000, &wire.Aggregate{Entries: entries})
			o.receive(rt.now, entries)
		case opTick:
			what = "tick"
			rt.fire()
			want := o.tick(rt.now)
			wantMsgs := o.cfg.Fanout
			if len(want) == 0 {
				wantMsgs = 0
			}
			if len(rt.sent) != wantMsgs {
				t.Fatalf("op %d (tick at %v): %d messages sent, oracle %d", step, rt.now, len(rt.sent), wantMsgs)
			}
			for _, m := range rt.sent {
				if len(m.Entries) != len(want) {
					t.Fatalf("op %d (tick at %v): sent %v, oracle %v", step, rt.now, m.Entries, want)
				}
				for i := range want {
					if m.Entries[i] != want[i] {
						t.Fatalf("op %d (tick at %v): entry %d sent %+v, oracle %+v\nsent   %v\noracle %v",
							step, rt.now, i, m.Entries[i], want[i], m.Entries, want)
					}
				}
			}
		case opAdvance:
			what = "advance"
			unit := oracleClockStep[int(next())%len(oracleClockStep)]
			rt.now += time.Duration(next()) * unit
		case opSetSelf:
			what = "set-self"
			kbps := 1 + uint32(next())<<8 + uint32(next())
			e.SetSelfCapKbps(kbps)
			o.selfCap = kbps
			o.setSelf(rt.now)
		case opExclude:
			what = "exclude"
			if id := wire.NodeID(next() % 28); o.excluded != nil {
				o.excluded[id] = !o.excluded[id]
			}
		}
		o.check(t, e, step, what)
	}
	e.Stop()
}

// oracleSeeds are hand-written op sequences, one per condition the index
// must survive; plain `go test` runs them all.
func oracleSeeds() [][]byte {
	header := func(shape, limit, self, exclude byte) []byte { return []byte{shape, limit, self, exclude} }
	// recv builds one opReceive from (id, cap, ageScale, age) quadruples.
	recv := func(quads ...byte) []byte {
		return append([]byte{opReceive, byte(len(quads)/4 - 1)}, quads...)
	}
	advance := func(scale, steps byte) []byte { return []byte{opAdvance, scale, steps} }
	tick := []byte{opTick}
	setSelf := func(hi, lo byte) []byte { return []byte{opSetSelf, hi, lo} }
	exclude := func(ids ...byte) []byte { // toggles each id
		var out []byte
		for _, id := range ids {
			out = append(out, opExclude, id)
		}
		return out
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// spread fills ids 1..n with ages i×200 ms, so they land in n buckets.
	spread := func(n byte) []byte {
		var out []byte
		for i := byte(1); i <= n; i += 10 {
			var quads []byte
			for j := i; j < i+10 && j <= n; j++ {
				quads = append(quads, j, j, 2, j)
			}
			out = append(out, recv(quads...)...)
		}
		return out
	}
	// expiry leaves self and ids 1..alive-1 inside a 1 s TTL while ids 20-22
	// cross it between the first tick and the second (k 10).
	expiry := func(alive byte) []byte {
		var fresh []byte
		for id := byte(1); id < alive; id++ {
			fresh = append(fresh, id, id, 1, id)
		}
		return cat(header(5, 0, 0, 0), advance(3, 2), recv(20, 20, 1, 90, 21, 21, 1, 91, 22, 22, 1, 92),
			recv(fresh...), tick, tick, recv(23, 23, 0, 0), tick)
	}
	seeds := [][]byte{
		// Ages beyond the TTL and beyond the clock (negative asOf) on
		// arrival: counted until the next tick, gone after it.
		cat(header(0, 0, 0, 0), advance(3, 2),
			recv(1, 10, 3, 16, 2, 20, 4, 1, 3, 30, 5, 255, 4, 40, 3, 3), tick,
			recv(5, 50, 3, 200), advance(2, 1), recv(6, 60, 4, 2), tick, tick),
		// The same id rewritten at the same instant, self included (a tick
		// and SetSelfCapKbps in one instant), then selected.
		cat(header(0, 0, 0, 0), advance(3, 1),
			recv(1, 10, 1, 5, 1, 11, 1, 5, 1, 12, 1, 4), recv(1, 13, 1, 4, 2, 20, 1, 4),
			setSelf(1, 0), setSelf(2, 0), tick, setSelf(3, 0), tick),
		// A clock jump longer than the whole ring, with a full table, then
		// fresh arrivals next to the stale ones before the tick that ages
		// the stale ones out.
		cat(header(0, 0, 0, 0), advance(3, 30), spread(27), tick,
			advance(4, 1), recv(1, 99, 0, 5), tick, spread(27), advance(5, 3), recv(2, 98, 2, 1), tick, tick),
		// The ring turning one period at a time under a full table: every
		// entry crosses the TTL and is carried or dropped on the way.
		cat(header(0, 0, 0, 0), spread(27),
			func() []byte {
				var out []byte
				for i := 0; i < 100; i++ {
					out = append(out, tick...)
					if i%7 == 0 {
						out = append(out, recv(byte(i%27+1), 7, 2, byte(i%60))...)
					}
				}
				return out
			}()),
		// Ids at and beyond TrackLimit, negative, and at or past the
		// dense-table ceiling; self inside the limit, then outside it.
		cat(header(0, 2, 1, 0),
			recv(7, 10, 0, 1, 8, 20, 0, 1, 9, 30, 0, 1, 224, 40, 0, 1, 225, 50, 0, 1,
				226, 60, 0, 1, 227, 70, 0, 1, 228, 80, 0, 1, 229, 90, 0, 1), tick, tick),
		// Self outside the limit: no own entry, the estimate is all sampled prefix.
		cat(header(0, 2, 2, 0), tick,
			recv(20, 10, 0, 1, 7, 20, 0, 1, 8, 30, 0, 1), tick, setSelf(0, 9), advance(4, 1), tick, tick),
		// A valid id far from the rest (the dense table grows to reach it).
		cat(header(0, 0, 0, 0), recv(229, 90, 0, 1, 1, 10, 0, 2), tick, advance(4, 1), tick),
		// No limit: the two largest valid ids grow the table to its ceiling
		// and share buckets with small ids, are rewritten, carried by the
		// turning ring and expired; ids at and past the ceiling stay out.
		cat(header(0, 0, 0, 0), recv(231, 70, 0, 1, 230, 60, 0, 2, 1, 10, 0, 3, 232, 5, 0, 1, 226, 6, 0, 1),
			tick, recv(230, 61, 0, 0, 231, 71, 1, 1), advance(2, 3), recv(2, 20, 0, 0, 231, 72, 0, 0), tick,
			advance(3, 14), tick, recv(230, 62, 0, 0), advance(4, 1), tick, tick),
		// The same with Exclude on and k 3: purges and refills reach the
		// edge ids through the ring.
		cat(header(2, 0, 1, 1), recv(231, 70, 0, 0, 230, 60, 0, 0, 5, 50, 0, 0, 6, 60, 0, 1),
			tick, exclude(5, 6), tick, recv(231, 73, 0, 0), advance(3, 16), tick),
		// Self past the ceiling, no limit: self is never filed, the estimate
		// is all sampled prefix, edge ids included.
		cat(header(0, 0, 3, 0), tick, recv(1, 10, 0, 1, 231, 20, 0, 1, 232, 30, 0, 1), tick,
			setSelf(0, 9), advance(4, 1), tick, recv(230, 40, 0, 0), tick),
		// FreshestK larger than the table; k 3 and fanout 3.
		cat(header(4, 0, 0, 0), spread(27), tick, advance(3, 10), tick),
		cat(header(2, 0, 0, 0), spread(27), tick, recv(9, 1, 0, 0), tick),
		cat(header(3, 0, 0, 0), spread(12), tick, tick),
		// Period 1 s (17-bucket ring) across several TTLs.
		cat(header(1, 0, 0, 0), spread(27), tick, advance(3, 9), recv(3, 33, 3, 14), tick,
			advance(3, 7), tick, advance(4, 1), recv(4, 44, 3, 15, 5, 55, 3, 16), tick, tick),
		// Short TTLs: five periods, and shorter than one period.
		cat(header(5, 0, 0, 0), spread(12), tick, tick, tick, recv(1, 10, 2, 4, 2, 20, 2, 6), tick, tick, tick),
		cat(header(6, 0, 0, 0), recv(1, 10, 2, 1, 2, 20, 2, 2), tick, recv(3, 30, 1, 1), tick, tick),
		// Exclude convicting an id already merged, relays of it refused
		// while convicted, then release.
		cat(header(0, 0, 0, 1), spread(12), tick, exclude(3, 5),
			recv(3, 99, 0, 0, 4, 88, 0, 0), tick, exclude(3), recv(3, 77, 0, 0), tick,
			exclude(0), advance(4, 1), tick),
	}
	// The freshest-k set (compared with the oracle after every op).
	return append(seeds,
		// Exclude purging the rank-1, a middle and the rank-k member, each
		// replaced from the ring; then all three released and re-merged.
		cat(header(0, 0, 0, 1), spread(12), tick, advance(1, 3), recv(13, 13, 0, 0),
			exclude(13), tick, exclude(4), tick, exclude(10), tick,
			exclude(13, 4, 10), recv(13, 13, 0, 0, 4, 4, 0, 0, 10, 10, 0, 0), tick, tick),
		// A refill whose last bucket holds more than the set has room for,
		// linked oldest first (k 3): the whole bucket has to be ranked.
		cat(header(2, 0, 0, 1), advance(3, 1), tick, advance(1, 1), recv(9, 90, 0, 0),
			recv(1, 10, 0, 110, 2, 20, 0, 140, 4, 40, 0, 150, 5, 50, 0, 155), exclude(9), tick),
		// TTL expiry with exactly k, k-1 and k+1 entries left alive: only
		// with k-1 does a member expire and the set refill short.
		expiry(10), expiry(9), expiry(11),
		// Ties on asOf at the k-th boundary (k 3, self is id 3): a smaller id
		// displaces the last record, a larger one is turned away, self falls
		// out of its own set and returns at the tick; then ties with self.
		cat(header(2, 0, 1, 0), recv(5, 50, 0, 0, 6, 60, 0, 0), recv(1, 10, 0, 0), recv(9, 90, 0, 0),
			recv(4, 40, 0, 0), recv(0, 1, 0, 0), recv(2, 20, 0, 0), tick,
			recv(7, 70, 0, 0), recv(2, 21, 0, 0), recv(8, 80, 0, 0), tick),
		// The same id refreshed twice inside one period (k 3): first from
		// outside the set, then as a member moving up; its old record leaves.
		cat(header(2, 0, 0, 0), advance(3, 1), recv(1, 10, 1, 50, 2, 20, 1, 40, 4, 40, 1, 30, 5, 50, 1, 20),
			recv(1, 11, 1, 25), recv(1, 12, 1, 10), recv(4, 41, 1, 5), recv(4, 42, 1, 5), tick),
		// SetSelfCapKbps mid-period: self returns to rank 1 with the new value.
		cat(header(0, 0, 0, 0), spread(12), tick, advance(1, 5), recv(13, 13, 0, 0), setSelf(1, 0),
			advance(1, 5), recv(14, 14, 0, 0), setSelf(2, 0), setSelf(3, 0), tick),
		// FreshestK 1: ties and displacement with one record.
		cat(header(7, 0, 0, 1), recv(5, 50, 0, 0), advance(1, 1), recv(6, 60, 0, 0), recv(2, 20, 0, 0),
			recv(8, 80, 0, 0), exclude(2), tick, advance(1, 1), recv(6, 61, 0, 0), exclude(6), tick),
		// FreshestK larger than the table: every entry is a member, a purge
		// refills across the whole ring, and expiry leaves self alone.
		cat(header(4, 0, 0, 1), spread(27), tick, exclude(5, 27), tick, recv(5, 5, 0, 0),
			exclude(5), recv(5, 6, 0, 0), tick, advance(4, 1), tick),
		// TrackLimit excluding self (k 3, limit 8, self 20): the set never
		// holds self, and empties when everything expires.
		cat(header(2, 2, 2, 1), recv(1, 10, 0, 1, 2, 20, 0, 2, 5, 50, 0, 3, 7, 70, 0, 4, 9, 90, 0, 0, 20, 1, 0, 0),
			tick, exclude(1), tick, recv(6, 60, 0, 0), tick, advance(4, 1), tick, recv(3, 30, 0, 0), tick),
	)
}

// FuzzEstimatorOracle checks the estimator's freshness index against the
// full scans it stands in for: after every op the count and the estimate,
// at every tick the exact message sent.
func FuzzEstimatorOracle(f *testing.F) {
	for _, seed := range oracleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runOracle)
}
