package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// Property tests for the pooled-event calendar queue: random operation
// sequences cross-checked against a sorted-slice oracle. These guard the
// hand-rolled tier/sift/unlink code and the free-list recycling that the
// whole simulator's determinism rests on — including the canonical
// (at, src, srcSeq) order that makes results shard-count invariant.

// evKey mirrors an event's canonical ordering key.
type evKey struct {
	at     time.Duration
	src    wire.NodeID
	srcSeq uint64
}

func keyOf(ev *event) evKey { return evKey{ev.at, ev.src, ev.srcSeq} }

func keyLess(a, b evKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.srcSeq < b.srcSeq
}

// queueOracle drives one shard's queue through push/pop/peek and mirrors it
// in a slice kept sorted in canonical order. After every operation check
// asserts that the queue holds exactly the oracle's events, each reachable
// in exactly one tier and in the tier its bucket names.
type queueOracle struct {
	t    testing.TB
	sh   *shard
	now  time.Duration // at of the last pop: pushes are scheduled from here
	seq  uint64
	live []*event // queued events, sorted by keyLess
	seen map[*event]bool
}

func newQueueOracle(t testing.TB, sh *shard) *queueOracle {
	return &queueOracle{t: t, sh: sh, seen: map[*event]bool{}}
}

func (q *queueOracle) insert(ev *event) {
	k := keyOf(ev)
	i := sort.Search(len(q.live), func(i int) bool { return keyLess(k, keyOf(q.live[i])) })
	q.live = append(q.live, nil)
	copy(q.live[i+1:], q.live[i:])
	q.live[i] = ev
	q.check()
}

// push queues a fresh timer event at the absolute time at.
func (q *queueOracle) push(at time.Duration, src wire.NodeID) *event {
	ev := q.sh.alloc()
	ev.at, ev.src, ev.srcSeq, ev.kind = at, src, q.seq, evTimer
	q.seq++
	q.sh.push(ev)
	q.insert(ev)
	return ev
}

// pop takes the earliest event, which must be the oracle's first.
func (q *queueOracle) pop() *event {
	q.t.Helper()
	ev := q.sh.pop()
	if ev != q.live[0] {
		q.t.Fatalf("pop %+v, oracle min %+v", keyOf(ev), keyOf(q.live[0]))
	}
	if ev.next != nil {
		q.t.Fatalf("popped event still linked: next=%p", ev.next)
	}
	q.live = q.live[1:]
	q.now = ev.at
	q.check()
	return ev
}

// peek must report the oracle's earliest due time, maxTime when empty.
func (q *queueOracle) peek() {
	q.t.Helper()
	want := maxTime
	if len(q.live) > 0 {
		want = q.live[0].at
	}
	if got := q.sh.peek(); got != want {
		q.t.Fatalf("peek %v, oracle %v", got, want)
	}
	q.check()
}

// deferBy is the freeze-deferral move: the earliest event is popped, retimed
// (keeping its canonical identity) and pushed again.
func (q *queueOracle) deferBy(d time.Duration) {
	ev := q.pop()
	ev.at += d
	q.sh.push(ev)
	q.insert(ev)
}

// drain pops everything left, in exact sorted order.
func (q *queueOracle) drain() {
	q.t.Helper()
	for len(q.live) > 0 {
		q.sh.recycle(q.pop())
	}
	q.peek()
}

// check walks every tier. seen is the set of events found there, which must
// equal the oracle's live set: no event twice, none missing, none foreign.
func (q *queueOracle) check() {
	q.t.Helper()
	sh := q.sh
	clear(q.seen)
	visit := func(tier string, ev *event, ok bool) {
		d := bucketOf(ev.at) - sh.cursor
		if !ok || q.seen[ev] {
			q.t.Fatalf("%s holds %+v %d buckets from the cursor (seen=%v)", tier, keyOf(ev), d, q.seen[ev])
		}
		q.seen[ev] = true
	}
	for _, ent := range sh.cur {
		visit("cur", ent.ev, bucketOf(ent.at) <= sh.cursor && ent.at == ent.ev.at && ent.key == entKey(ent.ev))
	}
	for _, ent := range sh.far {
		visit("far", ent.ev, bucketOf(ent.at)-sh.cursor >= ringLen && ent.at == ent.ev.at && ent.key == entKey(ent.ev))
	}
	linked := 0
	for slot, ev := range sh.ring {
		for ; ev != nil; ev = ev.next {
			b := bucketOf(ev.at)
			visit("ring", ev, b > sh.cursor && b-sh.cursor < ringLen && int(b&(ringLen-1)) == slot)
			linked++
		}
	}
	if linked != sh.inRing || len(q.seen) != len(q.live) {
		q.t.Fatalf("queue holds %d events (%d cur, %d linked / inRing %d, %d far), oracle %d",
			len(q.seen), len(sh.cur), linked, sh.inRing, len(sh.far), len(q.live))
	}
	for _, ev := range q.live {
		if !q.seen[ev] {
			q.t.Fatalf("oracle event %+v is in no tier", keyOf(ev))
		}
	}
}

// stormDelay draws delays that land in every tier: mostly a few buckets
// ahead, some around the ring horizon, a few hours out, a few zero.
func stormDelay(rng *rand.Rand) time.Duration {
	switch r := rng.Intn(20); {
	case r < 13:
		return time.Duration(rng.Intn(64)) * time.Millisecond
	case r < 16:
		return time.Duration(rng.Int63n(int64(6 * time.Second)))
	case r < 18:
		return time.Duration(rng.Intn(3*3600)) * time.Second
	default:
		return 0
	}
}

// TestHeapMatchesSortOracle drives push/pop/peek directly against a shard
// queue and checks every pop yields exactly the canonical minimum of the
// sorted oracle — i.e. the queue never yields events out of order.
func TestHeapMatchesSortOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newQueueOracle(t, New(Config{Seed: seed}).shards[0])
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(q.live) == 0:
				q.push(q.now+stormDelay(rng), wire.NodeID(rng.Intn(5)))
			case r < 9:
				q.sh.recycle(q.pop())
			default:
				q.peek()
			}
		}
		q.drain()
	}
}

// TestQueuePushPopDeferStorm hammers every shard queue of a multi-shard
// network with a randomized storm — push, pop, and pop-retime-repush (the
// freeze-deferral move) — against the oracle. It checks the two properties
// dispatch relies on: the queued population is exactly the oracle's at every
// step, and draining pops in exact canonical order.
func TestQueuePushPopDeferStorm(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := New(Config{Seed: seed, Latency: ConstantLatency(time.Millisecond), Shards: 4})
		if len(n.shards) != 4 {
			t.Fatalf("want 4 shards, got %d", len(n.shards))
		}
		for si, sh := range n.shards {
			rng := rand.New(rand.NewSource(seed<<3 | int64(si)))
			q := newQueueOracle(t, sh)
			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(12); {
				case r < 5 || len(q.live) == 0:
					q.push(q.now+stormDelay(rng), wire.NodeID(rng.Intn(7)))
				case r < 9:
					sh.recycle(q.pop())
				default:
					q.deferBy(stormDelay(rng))
				}
			}
			q.drain()
		}
	}
}

// TestTimerPoolMatchesOracle arms batches of timers with random delays and
// checks — against a plain oracle of due times — that every timer fires
// exactly once, at its due instant, across enough churn that event slots are
// recycled many times over.
func TestTimerPoolMatchesOracle(t *testing.T) {
	type timerState struct {
		due, firedAt time.Duration
		fired        int
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x7e57))
		n := New(Config{Seed: seed})
		n.AddNode(env.HandlerFunc(func(wire.NodeID, wire.Message) {}), NodeConfig{})
		// Drive through a runtime handle from the global context: legal
		// because every schedule mutation lands while the shards are parked.
		rt := &nodeRuntime{net: n, id: 0}

		var states []*timerState
		now := time.Duration(0)
		for round := 0; round < 40; round++ {
			for j := 0; j < 10; j++ {
				st := &timerState{due: now + time.Duration(rng.Intn(30))*time.Millisecond}
				states = append(states, st)
				rt.AfterFunc(st.due-now, func() {
					st.fired++
					st.firedAt = n.Now()
				})
			}
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			n.Run(now)
		}
		n.RunUntilIdle()
		for i, st := range states {
			if st.fired != 1 || st.firedAt != st.due {
				t.Fatalf("seed %d timer %d: fired %d times, last at %v, due %v", seed, i, st.fired, st.firedAt, st.due)
			}
		}
		// Every slot the pool ever made is back on the free list; fewer slots
		// than timers means slots were reused.
		slots := 0
		for ev := n.shards[0].free; ev != nil; ev = ev.next {
			slots++
		}
		if slots >= len(states) {
			t.Fatalf("seed %d: %d slots for %d timers, none reused", seed, slots, len(states))
		}
	}
}
