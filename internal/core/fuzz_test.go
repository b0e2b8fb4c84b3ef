package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/membership"
	"repro/internal/wire"
)

// FuzzEngineReceive feeds one engine byte-decoded Propose, Request and Serve
// messages from arbitrary senders on arbitrary streams and ids, with clock
// advances between them that fire its gossip rounds, retransmission timers
// and serve-buffer prunes. Whatever the sequence, the engine must not panic;
// its pending and buffered counts must equal a recount over the state bytes,
// no buffered id's prune epoch may lie more than five ticks past the next
// prune tick, and its pending-record pool must hold exactly one record per
// pending id;
// no table may grow past maxTrackedPacketID nor the engine past
// maxTrackedStreams; every Serve it sends must carry only buffered ids, as
// they were delivered, on the very bytes delivered (the buffer keeps a view,
// not a copy); and OnDeliver must fire at most once per (stream, id).
//
// An op is four header bytes [kind, from, stream, n] and n id bytes. kind%4
// picks Propose, Request, Serve, or a clock advance of from×25 ms. Stream
// bytes below 192 name streams 0-2; the other 64 are distinct streams, enough
// to reach the stream bound. Id bytes from 240 up are past the id bound.
// Besides engineSeeds, testdata/fuzz/FuzzEngineReceive holds ring-wrap, whose
// second retransmission batch wraps around the end of its stream's ring.
func FuzzEngineReceive(f *testing.F) {
	for _, s := range engineSeeds() {
		f.Add(s)
	}
	f.Fuzz(runEngineScript)
}

func runEngineScript(t *testing.T, data []byte) {
	type key struct {
		stream wire.StreamID
		id     wire.PacketID
	}
	delivered := map[key]wire.Event{}
	rt := &stubRuntime{rng: rand.New(rand.NewSource(1))}
	e := MustNew(Config{
		Fanout:          2,
		Sampler:         membership.NewDirectory(8).ViewFor(0),
		RetPeriod:       300 * time.Millisecond,
		RetMaxAttempts:  3,
		ExpectedPackets: 64,
		OnDeliver: func(ev wire.Event, _ time.Duration) {
			k := key{ev.Stream, ev.ID}
			if _, dup := delivered[k]; dup {
				t.Fatalf("stream %d id %d delivered twice", ev.Stream, ev.ID)
			}
			delivered[k] = ev
		},
	})
	e.serveBuffer = 2 * time.Second
	rt.onSend = func(m wire.Message) {
		serve, ok := m.(*wire.Serve)
		if !ok {
			return
		}
		st := e.lookupStream(serve.Stream)
		for _, ev := range serve.Events {
			if st == nil || st.packets.stateOf(ev.ID) < pktBuffered {
				t.Fatalf("served stream %d id %d, which is not buffered", serve.Stream, ev.ID)
			}
			want := delivered[key{serve.Stream, ev.ID}]
			if ev.Stream != want.Stream || ev.Stamp != want.Stamp || !bytes.Equal(ev.Payload, want.Payload) {
				t.Fatalf("served %+v, delivered %+v", ev, want)
			}
			if unsafe.SliceData(ev.Payload) != unsafe.SliceData(want.Payload) {
				t.Fatalf("served stream %d id %d from a copy, not the delivered bytes", serve.Stream, ev.ID)
			}
		}
	}
	e.Start(rt)
	for len(data) >= 4 {
		kind, fromB, streamB, n := data[0]%4, data[1], data[2], int(data[3]%8)
		data = data[4:]
		from := wire.NodeID(int8(fromB))
		stream := wire.StreamID(streamB % 3)
		if streamB >= 192 {
			stream = wire.StreamID(streamB)
		}
		var ids []wire.PacketID
		for ; n > 0 && len(data) > 0; n-- {
			id := wire.PacketID(data[0] % 200)
			if data[0] >= 240 {
				id = maxTrackedPacketID + wire.PacketID(data[0])
			}
			ids = append(ids, id)
			data = data[1:]
		}
		switch kind {
		case 0:
			e.Receive(from, &wire.Propose{Stream: stream, IDs: ids})
		case 1:
			e.Receive(from, &wire.Request{Stream: stream, IDs: ids})
		case 2:
			events := make([]wire.Event, len(ids))
			for i, id := range ids {
				events[i] = wire.Event{ID: id, Stream: stream, Stamp: int64(id) * 7, Payload: []byte{byte(id), byte(stream), fromB}}
			}
			e.Receive(from, &wire.Serve{Stream: stream, Events: events})
		case 3:
			rt.advance(rt.now + time.Duration(fromB)*25*time.Millisecond)
		}

		if len(e.streams) > maxTrackedStreams {
			t.Fatalf("%d streams tracked, bound %d", len(e.streams), maxTrackedStreams)
		}
		var pending, buffered int
		for _, st := range e.streams {
			tab := &st.packets
			if len(tab.state) > maxTrackedPacketID || len(tab.slots) != len(tab.state) {
				t.Fatalf("stream %d: %d state bytes, %d slots", st.id, len(tab.state), len(tab.slots))
			}
			var p, b int
			for id, s := range tab.state {
				switch {
				case s == pktPending:
					p++
				case s >= pktBuffered:
					b++
					// The stub fires every tick on schedule, so a buffered
					// id waits at most five ticks from the next one due.
					if wait := (int(s-pktBuffered) - e.pruneTick + pruneEpochs) % pruneEpochs; wait > 5 {
						t.Fatalf("stream %d id %d buffered %d ticks ahead of prune tick %d", st.id, id, wait, e.pruneTick)
					}
				}
			}
			if p != tab.pending || b != tab.buffered {
				t.Fatalf("stream %d counts pending %d buffered %d, recount %d and %d", st.id, tab.pending, tab.buffered, p, b)
			}
			if err := checkRecPool(tab); err != nil {
				t.Fatalf("stream %d: %v", st.id, err)
			}
			pending += p
			buffered += b
		}
		if e.PendingRequests() != pending || e.BufferedEvents() != buffered {
			t.Fatalf("PendingRequests %d BufferedEvents %d, recount %d and %d",
				e.PendingRequests(), e.BufferedEvents(), pending, buffered)
		}
		if got := e.Stats().EventsDelivered; got != int64(len(delivered)) {
			t.Fatalf("EventsDelivered %d, upcalls %d", got, len(delivered))
		}
	}
}

// engineSeeds are short scripts through each path: the request/serve/prune
// life cycle, retransmission to a give-up and a fresh request after it,
// duplicate and unrequested serves, ids past the bound, and more streams than
// the engine tracks.
func engineSeeds() [][]byte {
	op := func(kind, from, stream byte, ids ...byte) []byte {
		return append([]byte{kind, from, stream, byte(len(ids))}, ids...)
	}
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	manyStreams := []byte{}
	for s := 0; s < 70; s++ {
		manyStreams = append(manyStreams, op(0, 3, byte(190+s), 1)...)
	}
	return [][]byte{
		cat(op(0, 1, 0, 1, 2, 3), op(2, 1, 0, 1, 2), op(1, 2, 0, 1, 2, 3), op(3, 4, 0),
			op(3, 100, 0), op(1, 2, 0, 1), op(2, 5, 0, 3, 1)),
		cat(op(0, 1, 1, 7), op(0, 2, 1, 7), op(0, 3, 1, 7), op(3, 13, 0), op(3, 13, 0),
			op(3, 13, 0), op(0, 4, 1, 7), op(2, 4, 1, 7)),
		cat(op(2, 9, 2, 5, 6), op(2, 9, 2, 5, 6), op(0, 9, 2, 5, 199, 64, 65), op(1, 200, 2, 5, 6, 64)),
		cat(op(0, 1, 0, 240, 255, 3), op(2, 1, 0, 241, 3), op(1, 1, 0, 241, 3), op(3, 255, 0)),
		cat(manyStreams, op(2, 3, 250, 1), op(1, 3, 251, 1), op(3, 20, 0)),
	}
}

// stubRuntime is a single-node runtime on a manual clock: advance fires due
// timers in (deadline, arming) order, onSend, when set, observes every
// message (lastTo holds its destination meanwhile), and onArm every timer
// armed. Timers due before frozenUntil fire at frozenUntil instead, as a
// frozen simnet node's do.
type stubRuntime struct {
	now         time.Duration
	rng         *rand.Rand
	timers      []stubTimer
	armed       int
	onSend      func(wire.Message)
	lastTo      wire.NodeID
	onArm       func(fn func())
	frozenUntil time.Duration
}

type stubTimer struct {
	at  time.Duration
	seq int
	fn  func()
}

func (r *stubRuntime) ID() wire.NodeID    { return 0 }
func (r *stubRuntime) Rand() *rand.Rand   { return r.rng }
func (r *stubRuntime) Now() time.Duration { return r.now }
func (r *stubRuntime) Send(to wire.NodeID, m wire.Message) {
	r.lastTo = to
	if r.onSend != nil {
		r.onSend(m)
	}
}

func (r *stubRuntime) AfterFunc(d time.Duration, fn func()) {
	if r.onArm != nil {
		r.onArm(fn)
	}
	r.armed++
	r.timers = append(r.timers, stubTimer{at: r.now + d, seq: r.armed, fn: fn})
}

func (r *stubRuntime) advance(to time.Duration) {
	due := func(tm stubTimer) time.Duration { return max(tm.at, r.frozenUntil) }
	for {
		next := -1
		for i, tm := range r.timers {
			if at := due(tm); at <= to && (next < 0 || at < due(r.timers[next]) ||
				at == due(r.timers[next]) && tm.seq < r.timers[next].seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		tm := r.timers[next]
		r.timers = append(r.timers[:next], r.timers[next+1:]...)
		r.now = due(tm)
		tm.fn()
	}
	r.now = to
}
