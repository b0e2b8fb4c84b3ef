package stack

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/misbehave"
	"repro/internal/wire"
)

// clockRuntime is stubRuntime with a clock: timers carry due times and fire
// in due order as the clock advances.
type clockRuntime struct {
	*stubRuntime
	queue []*clockTimer // armed, in arming order

	// With scribbleSent set, every message handed to Send is scribbled on
	// once the callback that sent it returns (settle): what a sender's next
	// use of its scratch message does. Not at Send itself, because a sender
	// may pass one message to several Sends in a row.
	scribbleSent bool
	lent         []wire.Message
}

func (c *clockRuntime) Send(to wire.NodeID, m wire.Message) {
	c.stubRuntime.Send(to, m)
	if c.scribbleSent {
		c.lent = append(c.lent, m)
	}
}

// settle ends a callback: the messages it sent are scribbled on, if
// scribbleSent is set.
func (c *clockRuntime) settle() {
	for _, m := range c.lent {
		scribble(m)
	}
	c.lent = c.lent[:0]
}

type clockTimer struct {
	due  time.Duration
	fn   func()
	done bool
}

func (c *clockRuntime) AfterFunc(d time.Duration, fn func()) {
	c.queue = append(c.queue, &clockTimer{due: c.now + d, fn: fn})
}

// advance moves the clock d forward, firing what falls due on the way,
// earliest first and in arming order among equals.
func (c *clockRuntime) advance(d time.Duration) {
	end := c.now + d
	for {
		c.queue = slices.DeleteFunc(c.queue, func(t *clockTimer) bool { return t.done })
		next := -1
		for i, t := range c.queue {
			if t.due <= end && (next < 0 || t.due < c.queue[next].due) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := c.queue[next]
		t.done = true
		c.now = max(c.now, t.due)
		t.fn()
		c.settle()
	}
	c.now = end
}

// step is one entry of a recorded session: a datagram body from a peer, or —
// with frame nil — the clock moving on. replyToShuffle stands for "from
// whichever peer the node last sent a ShuffleReq to", the only sender Cyclon
// accepts a reply from.
type step struct {
	from    wire.NodeID
	frame   []byte
	advance time.Duration
}

const replyToShuffle wire.NodeID = -2

// recordedSession is a few seconds of one node's inbound traffic, every kind
// the stack handles: proposals that overlap (alternate proposers), serves
// that deliver, requests for ids it holds and ids it does not, capability
// and membership gossip, retransmission timeouts in between.
func recordedSession() []step {
	rng := rand.New(rand.NewSource(7))
	peer := func() wire.NodeID { return wire.NodeID(1 + rng.Intn(20)) }
	ids := func(lo, n int) []wire.PacketID {
		out := make([]wire.PacketID, n)
		for i := range out {
			out[i] = wire.PacketID(lo + i)
		}
		return out
	}
	descriptors := func() []wire.PeerDescriptor {
		out := make([]wire.PeerDescriptor, 8)
		for i := range out {
			out[i] = wire.PeerDescriptor{Node: wire.NodeID(1 + rng.Intn(40)), Age: uint16(rng.Intn(5))}
		}
		return out
	}
	var steps []step
	recv := func(from wire.NodeID, m wire.Message) {
		steps = append(steps, step{from: from, frame: wire.Marshal(m)})
	}
	for round := 0; round < 40; round++ {
		lo := round * 6
		recv(peer(), &wire.Propose{Stream: 1, IDs: ids(lo, 8)})
		recv(peer(), &wire.Propose{Stream: 1, IDs: ids(lo+3, 8)}) // overlaps the first
		events := make([]wire.Event, 5)
		for i := range events {
			payload := make([]byte, 32)
			rng.Read(payload)
			events[i] = wire.Event{ID: wire.PacketID(lo + i), Stream: 1, Stamp: int64(round), Payload: payload}
		}
		recv(peer(), &wire.Serve{Stream: 1, Events: events[:3]})
		recv(peer(), &wire.Serve{Stream: 1, Events: events[2:]}) // one duplicate
		recv(peer(), &wire.Request{Stream: 1, IDs: ids(max(0, lo-4), 6)})
		recv(peer(), &wire.Request{Stream: 1, IDs: ids(lo+1000, 2)}) // unservable
		entries := make([]wire.CapEntry, 10)
		for i := range entries {
			entries[i] = wire.CapEntry{Node: wire.NodeID(rng.Intn(40)), CapKbps: uint32(256 + rng.Intn(3000)), AgeMs: uint32(rng.Intn(2000))}
		}
		recv(peer(), &wire.Aggregate{Entries: entries})
		recv(peer(), &wire.ShuffleReq{Descriptors: descriptors()})
		recv(replyToShuffle, &wire.ShuffleReply{Descriptors: descriptors()})
		recv(peer(), &wire.AvgPush{Value: rng.Float64(), Weight: 1})
		recv(peer(), &wire.AvgReply{Value: rng.Float64(), Weight: 1})
		steps = append(steps, step{advance: 150 * time.Millisecond})
	}
	return steps
}

// scribble overwrites everything in a message except payload bytes — what
// the UDP read loop's next decode into the same message does, and what a
// sender's next use of its scratch message does.
func scribble(m wire.Message) {
	const id = wire.PacketID(0xdeadbeefdeadbeef)
	junk := []byte("scribbled")
	switch x := m.(type) {
	case *wire.Propose:
		x.Stream = 0xdead
		for i := range x.IDs {
			x.IDs[i] = id
		}
	case *wire.Request:
		x.Stream = 0xdead
		for i := range x.IDs {
			x.IDs[i] = id
		}
	case *wire.Serve:
		x.Stream = 0xdead
		for i := range x.Events {
			x.Events[i] = wire.Event{ID: id, Stream: 0xdead, Stamp: -1, Payload: junk}
		}
	case *wire.Aggregate:
		for i := range x.Entries {
			x.Entries[i] = wire.CapEntry{Node: 0xdead, CapKbps: math.MaxUint32}
		}
	case *wire.ShuffleReq:
		for i := range x.Descriptors {
			x.Descriptors[i] = wire.PeerDescriptor{Node: 0xdead}
		}
	case *wire.ShuffleReply:
		for i := range x.Descriptors {
			x.Descriptors[i] = wire.PeerDescriptor{Node: 0xdead}
		}
	case *wire.AvgPush:
		x.Value, x.Weight = math.NaN(), math.NaN()
	case *wire.AvgReply:
		x.Value, x.Weight = math.NaN(), math.NaN()
	}
}

// sessionOutcome is everything observable about a node after a session.
type sessionOutcome struct {
	Stats     core.Stats
	Sent      []string // destination and encoding of every message sent, in order
	SentKinds map[wire.Kind]int
	Delivered []string // stream/id, delivery time and payload of every upcall, in order
	BbarKbps  float64
	SizeHat   float64
	View      []wire.PeerDescriptor
	Evidence  []misbehave.Evidence
}

// playSession builds the full stack — peer sampling, size averager,
// capability estimator, armed detector, engine — over a clock runtime and
// feeds it the session, decoding each frame with decode and handing each
// received message to after once Receive returns. scribbleSent scribbles on
// every sent message once the callback that sent it returns.
func playSession(t *testing.T, steps []step, decode func([]byte) wire.Message, after func(wire.Message), scribbleSent bool) sessionOutcome {
	t.Helper()
	var out sessionOutcome
	rt := &clockRuntime{stubRuntime: newStub(0), scribbleSent: scribbleSent}
	bootstrap := make([]wire.NodeID, 20)
	for i := range bootstrap {
		bootstrap[i] = wire.NodeID(i + 1)
	}
	cyclon := membership.NewCyclon(membership.CyclonConfig{}, bootstrap)
	n, err := Build(Spec{
		ID:     0,
		Cyclon: cyclon,
		Engine: core.Config{
			Fanout:    4,
			RetPeriod: 400 * time.Millisecond,
			OnDeliver: func(ev wire.Event, at time.Duration) {
				out.Delivered = append(out.Delivered, fmt.Sprintf("%d/%d@%v:%x", ev.Stream, ev.ID, at, ev.Payload))
			},
		},
		AdvertisedKbps: 700,
		Aggregation:    &aggregation.Config{},
		SizeEstimator:  &aggregation.AveragerConfig{InitialValue: 1},
		Detect:         &misbehave.Config{Armed: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Handler.Start(rt)
	rt.settle()
	for _, st := range steps {
		if st.frame == nil {
			rt.advance(st.advance)
			continue
		}
		from := st.from
		if from == replyToShuffle {
			for _, s := range rt.sent {
				if s.msg.Kind() == wire.KindShuffleReq {
					from = s.to
				}
			}
		}
		m := decode(st.frame)
		n.Handler.Receive(from, m)
		rt.settle()
		after(m)
	}
	// Read everything only now: a slice header kept from a message, in the
	// node's state or inside something it sent, has been scribbled on since.
	out.Stats = n.Engine.Stats()
	out.SentKinds = map[wire.Kind]int{}
	for _, s := range rt.sent {
		out.Sent = append(out.Sent, fmt.Sprintf("%d:%x", s.to, wire.Marshal(s.msg)))
		out.SentKinds[s.msg.Kind()]++
	}
	out.BbarKbps = n.Estimator.EstimateKbps()
	out.SizeHat = n.Averager.SizeEstimate()
	out.View = cyclon.ViewDescriptors()
	for peer := wire.NodeID(0); peer <= 40; peer++ {
		if ev, ok := n.Detector.EvidenceOf(peer); ok {
			out.Evidence = append(out.Evidence, ev)
		}
	}
	return out
}

// TestHandlersDoNotRetainMessages proves the lifetime rule env.Handler.Receive
// states and the UDP read loop relies on: no handler of the stack keeps a
// message, or a slice header from inside one, past Receive. The same session
// is played twice — every frame decoded into fresh storage, then every frame
// through one wire.Decoder whose message is overwritten with sentinels as
// soon as Receive returns — and must leave the node in the same state, having
// sent the same bytes and delivered the same packets.
func TestHandlersDoNotRetainMessages(t *testing.T) {
	steps := recordedSession()
	mustDecode := func(m wire.Message, err error) wire.Message {
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fresh := playSession(t, steps,
		func(frame []byte) wire.Message { return mustDecode(wire.Unmarshal(frame)) },
		func(wire.Message) {}, false)
	var dec wire.Decoder
	reused := playSession(t, steps,
		func(frame []byte) wire.Message { return mustDecode(dec.Unmarshal(frame)) },
		scribble, false)
	sameSession(t, fresh, reused)
}

// TestSendersDoNotRetainMessages proves the lifetime rule env.Runtime.Send
// states and the simulator relies on: no sender of the stack keeps a message
// it sent, or a slice header from inside one, as its own state. The same
// session is played twice — once as is, once with every sent message
// scribbled on as soon as the callback that sent it returns — and must leave
// the node in the same state, having sent the same bytes (recorded at Send)
// and delivered the same packets.
func TestSendersDoNotRetainMessages(t *testing.T) {
	steps := recordedSession()
	decode := func(frame []byte) wire.Message {
		m, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	kept := playSession(t, steps, decode, func(wire.Message) {}, false)
	scribbled := playSession(t, steps, decode, func(wire.Message) {}, true)
	sameSession(t, kept, scribbled)
}

// sameSession fails the test unless two plays of the recorded session ended
// alike — after checking the first play exercised the stack, or equality
// proves nothing.
func sameSession(t *testing.T, clean, dirty sessionOutcome) {
	t.Helper()
	st := clean.Stats
	if st.EventsDelivered < 100 || st.RequestsSent < 40 || st.ServesSent < 20 ||
		st.Retransmissions == 0 || st.DuplicateEvents == 0 || st.UnservableIDs == 0 {
		t.Fatalf("the recorded session is too quiet to prove anything: %+v", st)
	}
	for k := wire.KindPropose; k <= wire.KindAvgReply; k++ {
		if clean.SentKinds[k] == 0 {
			t.Fatalf("the node never sent a %s: %v", k, clean.SentKinds)
		}
	}

	if !reflect.DeepEqual(clean.Stats, dirty.Stats) {
		t.Errorf("Stats differ:\n clean: %+v\n dirty: %+v", clean.Stats, dirty.Stats)
	}
	if !slices.Equal(clean.Delivered, dirty.Delivered) {
		t.Errorf("delivered sets differ: %d upcalls clean, %d dirty", len(clean.Delivered), len(dirty.Delivered))
	}
	for i := range min(len(clean.Sent), len(dirty.Sent)) {
		if clean.Sent[i] != dirty.Sent[i] {
			t.Errorf("sent message %d differs:\n clean: %s\n dirty: %s", i, clean.Sent[i], dirty.Sent[i])
			break
		}
	}
	if len(clean.Sent) != len(dirty.Sent) {
		t.Errorf("sent %d messages clean, %d dirty", len(clean.Sent), len(dirty.Sent))
	}
	clean.Sent, dirty.Sent, clean.Delivered, dirty.Delivered = nil, nil, nil, nil // reported above
	if !reflect.DeepEqual(clean, dirty) {
		t.Errorf("node state differs after the session:\n clean: %+v\n dirty: %+v", clean, dirty)
	}
}
