package simnet

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/env"
	"repro/internal/wire"
)

// Queue scripts are the byte language FuzzQueueOracle decodes and the table
// cases below are written in: each op drives the queueOracle of
// pool_property_test.go, which checks order, population and tier placement
// after every step.
const (
	opPush  = iota // [op | src<<2, class, hi, lo]: push at now + delay
	opPop          // pop the earliest
	opPeek         // peek: advances the cursor without consuming
	opDefer        // [op, class, hi, lo]: pop, retime by delay, push again
)

// delay is a script delay: a class and a 16-bit magnitude, chosen so the
// boundaries a calendar has — bucket edges, the ring horizon, hours — are
// single values the fuzzer can hit.
type delay struct {
	class byte
	m     uint16
}

func ns(n uint16) delay           { return delay{0, n} }
func buckets(b, off uint8) delay  { return delay{1, uint16(b)<<8 | uint16(off)} }
func horizon(plus int16) delay    { return delay{2, uint16(plus)} }
func minutes(n uint16) delay      { return delay{3, n} }
func (d delay) op(op byte) []byte { return []byte{op, d.class, byte(d.m >> 8), byte(d.m)} }

func (d delay) duration() time.Duration {
	switch d.class % 4 {
	case 0:
		return time.Duration(d.m)
	case 1: // whole buckets plus a 4 µs-grained offset inside the last
		return time.Duration(d.m>>8)<<bucketShift + time.Duration(d.m&0xff)<<12
	case 2: // the ring horizon, plus or minus whole buckets
		return time.Duration(max(ringLen+int64(int16(d.m)), 0)) << bucketShift
	default:
		return time.Duration(d.m) * time.Minute
	}
}

func push(d delay) []byte             { return d.op(opPush) }
func pushAs(src byte, d delay) []byte { return d.op(opPush | src<<2) }
func deferBy(d delay) []byte          { return d.op(opDefer) }

var pop, peek = []byte{opPop}, []byte{opPeek}

func script(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// runQueueScript interprets a script against a fresh shard and drains what
// is left. Truncated or inapplicable ops are skipped, so any byte string is
// a valid script.
func runQueueScript(t testing.TB, s []byte) *queueOracle {
	t.Helper()
	q := newQueueOracle(t, New(Config{}).shards[0])
	for len(s) > 0 {
		op, n := s[0], 1
		switch code := op & 3; {
		case (code == opPush || code == opDefer) && len(s) >= 4:
			d := delay{s[1], uint16(s[2])<<8 | uint16(s[3])}.duration()
			if n = 4; code == opPush {
				q.push(q.now+d, wire.NodeID(op>>2))
			} else if len(q.live) > 0 {
				q.deferBy(d)
			}
		case code == opPop && len(q.live) > 0:
			q.sh.recycle(q.pop())
		case code == opPeek:
			q.peek()
		}
		s = s[n:]
	}
	q.drain()
	return q
}

// queueCases are the situations a calendar queue has and a heap did not.
// maxSteps, when set, bounds the cursor moves the whole script may take.
var queueCases = []struct {
	name     string
	script   []byte
	maxSteps int64
}{
	{name: "delay-boundaries", script: script(
		push(ns(0)), push(ns(1)), push(buckets(1, 0)), push(horizon(0)),
		push(horizon(-1)), push(horizon(1)), push(minutes(180)), peek)},
	{name: "same-instant-ties", script: script(
		pushAs(3, buckets(2, 7)), pushAs(1, buckets(2, 7)), pushAs(1, buckets(2, 7)),
		pushAs(2, ns(0)), pushAs(0, ns(0)))},
	// A push into the bucket being drained that sorts before the head.
	{name: "before-current-head", script: script(
		push(buckets(5, 100)), push(buckets(5, 200)), peek, push(buckets(5, 50)), pop, pop, pop)},
	// peek jumped an idle hour ahead, then the global context sends: the
	// new events are due long before the bucket the cursor stands on.
	{name: "behind-jumped-cursor", script: script(
		push(minutes(60)), peek, push(buckets(1, 0)), push(ns(0)), push(horizon(3)), pop, pop, pop, pop)},
	// One event per tier, each pop emptying one: cur, then a step to the
	// ring bucket, then a jump across the empty ring to far's head.
	{name: "drain-each-tier", script: script(
		push(ns(5)), push(buckets(7, 0)), push(minutes(90)), pop, pop, pop,
		push(buckets(3, 1)), push(buckets(3, 2)), push(buckets(3, 3)), push(minutes(5)), push(minutes(6)),
		peek, pop, deferBy(minutes(1)), pop)},
	// Bucket lists are LIFO: after three pushes the last is the head, yet
	// they pop in time order; a push into the bucket being drained joins cur.
	{name: "bucket-list-lifo", script: script(
		push(buckets(9, 3)), push(buckets(9, 1)), push(buckets(9, 2)), pop,
		push(buckets(0, 4)), pop, pop)},
	// Freeze deferrals re-push a popped event: far ahead, into the bucket
	// being drained, and beyond the horizon.
	{name: "freeze-deferral", script: script(
		push(ns(0)), push(buckets(2, 0)), push(buckets(2, 9)),
		deferBy(buckets(95, 0)), deferBy(ns(0)), deferBy(minutes(120)))},
	{name: "ring-wrap", script: func() []byte {
		var s []byte
		for k := -ringLen; k <= 0; k++ { // 4097 events, one per bucket
			s = append(s, push(horizon(int16(k)))...)
		}
		return s
	}()},
	{name: "idle-day", script: script(push(ns(1)), push(minutes(24*60)), pop, pop), maxSteps: 2},
}

func TestQueueCases(t *testing.T) {
	for _, c := range queueCases {
		t.Run(c.name, func(t *testing.T) {
			q := runQueueScript(t, c.script)
			if c.maxSteps > 0 && q.sh.steps > c.maxSteps {
				t.Fatalf("%d cursor steps, want at most %d", q.sh.steps, c.maxSteps)
			}
		})
	}
}

// FuzzQueueOracle replays arbitrary scripts against the sorted oracle; the
// table cases are its seeds.
func FuzzQueueOracle(f *testing.F) {
	for _, c := range queueCases {
		f.Add(c.script)
	}
	f.Fuzz(func(t *testing.T, s []byte) { runQueueScript(t, s) })
}

// TestQueueSteadyStateAllocatesNothing pins the hot path: once the pool and
// the two small heaps have grown, a push and its pop allocate nothing in
// any tier.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, tier := range []struct {
		name  string
		delay time.Duration
		held  func(*shard) int
	}{
		{"cur", 0, func(s *shard) int { return len(s.cur) }},
		{"ring", 10 << bucketShift, func(s *shard) int { return s.inRing }},
		{"far", (ringLen + 10) << bucketShift, func(s *shard) int { return len(s.far) }},
	} {
		sh := New(Config{}).shards[0]
		var seq uint64
		allocs := testing.AllocsPerRun(1000, func() {
			ev := sh.alloc()
			ev.at, ev.srcSeq, ev.kind = sh.now+tier.delay, seq, evTimer
			seq++
			sh.push(ev)
			if tier.held(sh) != 1 {
				t.Fatalf("%s: the push landed in another tier", tier.name)
			}
			ev = sh.pop()
			sh.now = ev.at
			sh.recycle(ev)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per push+pop, want 0", tier.name, allocs)
		}
	}
}

// TestEventSizePinned: nothing outside the queue refers to a queued event, so
// the pooled slot holds only its key, its payload and a list link — 80 bytes,
// which must not grow.
func TestEventSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 80 {
		t.Fatalf("event is %d bytes, was 80", got)
	}
}

func TestAddNodeCeiling(t *testing.T) {
	admitNode(maxNodes - 1) // the last id the event key has room for
	a := &event{src: maxNodes - 2, srcSeq: 1<<seqBits - 1}
	b := &event{src: maxNodes - 1}
	if entKey(a) >= entKey(b) {
		t.Fatal("event key does not order the two largest node ids")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "1048576") {
			t.Fatalf("AddNode past the ceiling: panic %q, want one naming 1048576", msg)
		}
	}()
	admitNode(maxNodes)
}

// TestIdleDayTakesBoundedCursorSteps: two timers a simulated day apart must
// not walk the 82 million empty buckets between them.
func TestIdleDayTakesBoundedCursorSteps(t *testing.T) {
	const day = 24 * time.Hour
	n := New(Config{})
	var fired []time.Duration
	n.AddNode(&recorder{onStart: func(rt env.Runtime) {
		note := func() { fired = append(fired, rt.Now()) }
		rt.AfterFunc(time.Millisecond, note)
		rt.AfterFunc(day+time.Millisecond, note)
	}}, NodeConfig{})
	n.RunUntilIdle()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != day+time.Millisecond {
		t.Fatalf("timers fired at %v", fired)
	}
	if steps := n.shards[0].steps; steps > 4 {
		t.Fatalf("%d cursor steps across an idle day, want at most 4", steps)
	}
}

// TestGlobalSendBehindJumpedCursor is the Schedule-callback-sends case end
// to end: Run's peek moves the cursor to a timer an hour out, then a
// scheduled callback sends a datagram due in a millisecond.
func TestGlobalSendBehindJumpedCursor(t *testing.T) {
	n := New(Config{Latency: ConstantLatency(time.Millisecond)})
	var timerAt time.Duration
	a := &recorder{onStart: func(rt env.Runtime) {
		rt.AfterFunc(time.Hour, func() { timerAt = rt.Now() })
	}}
	b := &recorder{}
	n.AddNode(a, NodeConfig{})
	idb := n.AddNode(b, NodeConfig{})
	n.Schedule(10*time.Millisecond, func() { a.rt.Send(idb, ping()) })
	n.RunUntilIdle()
	if len(b.got) != 1 || b.got[0].at != 11*time.Millisecond {
		t.Fatalf("deliveries %+v, want one at 11ms", b.got)
	}
	if timerAt != time.Hour {
		t.Fatalf("timer fired at %v, want 1h", timerAt)
	}
}
