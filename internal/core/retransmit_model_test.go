package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/wire"
)

// sentRequest is one Request as the runtime saw it leave.
type sentRequest struct {
	at  time.Duration
	to  wire.NodeID
	ids []wire.PacketID
}

// sawTimeout is one ObserveTimeout call.
type sawTimeout struct {
	at   time.Duration
	peer wire.NodeID
}

// timeoutLog records the engine's ObserveTimeout calls.
type timeoutLog struct {
	NopObserver
	calls []sawTimeout
}

func (l *timeoutLog) ObserveTimeout(peer wire.NodeID, n int, now time.Duration) {
	for range n {
		l.calls = append(l.calls, sawTimeout{now, peer})
	}
}

// eagerRetModel is Algorithm 2 as the paper states it: every batch of
// requested ids gets a timer of its own when it is requested, and on expiry
// the ids still missing are re-requested from the next proposer (or given
// up after maxAttempts). It has no queue to settle and no timer to share,
// so it is the reference for what the engine's one timer per stream must
// do.
type eagerRetModel struct {
	rt          *stubRuntime
	period      time.Duration
	maxAttempts int
	same        bool

	state    map[wire.PacketID]uint8 // pktUnknown, pktPending or pktDelivered
	props    map[wire.PacketID][]wire.NodeID
	attempts map[wire.PacketID]int

	requests []sentRequest
	timeouts []sawTimeout
	giveUps  int
	armed    int
}

func newEagerRetModel(period time.Duration, maxAttempts int, same bool) *eagerRetModel {
	return &eagerRetModel{
		rt:     &stubRuntime{rng: rand.New(rand.NewSource(1))},
		period: period, maxAttempts: maxAttempts, same: same,
		state:    map[wire.PacketID]uint8{},
		props:    map[wire.PacketID][]wire.NodeID{},
		attempts: map[wire.PacketID]int{},
	}
}

func (m *eagerRetModel) propose(from wire.NodeID, ids []wire.PacketID) {
	var wanted []wire.PacketID
	for _, id := range ids {
		switch m.state[id] {
		case pktDelivered:
		case pktPending:
			if p := m.props[id]; len(p) < maxProposersTracked && !slices.Contains(p, from) {
				m.props[id] = append(p, from)
			}
		default:
			m.state[id] = pktPending
			m.props[id] = []wire.NodeID{from}
			m.attempts[id] = 1
			wanted = append(wanted, id)
		}
	}
	if len(wanted) > 0 {
		m.request(from, wanted)
	}
}

func (m *eagerRetModel) serve(ids []wire.PacketID) {
	for _, id := range ids {
		m.state[id] = pktDelivered
	}
}

func (m *eagerRetModel) request(to wire.NodeID, ids []wire.PacketID) {
	m.requests = append(m.requests, sentRequest{m.rt.now, to, ids})
	if m.maxAttempts <= 1 {
		return
	}
	m.armed++
	m.rt.AfterFunc(m.period, func() { m.expire(ids) })
}

func (m *eagerRetModel) expire(batch []wire.PacketID) {
	var targets []wire.NodeID
	groups := map[wire.NodeID][]wire.PacketID{}
	for _, id := range batch {
		if m.state[id] != pktPending {
			continue
		}
		p, a := m.props[id], m.attempts[id]
		prev := p[0]
		if !m.same && a > 1 {
			prev = p[(a-1)%len(p)]
		}
		m.timeouts = append(m.timeouts, sawTimeout{m.rt.now, prev})
		if a >= m.maxAttempts {
			m.state[id] = pktUnknown
			m.giveUps++
			continue
		}
		target := p[0]
		if !m.same {
			target = p[a%len(p)]
		}
		m.attempts[id] = a + 1
		if _, ok := groups[target]; !ok {
			targets = append(targets, target)
		}
		groups[target] = append(groups[target], id)
	}
	for _, to := range targets {
		m.request(to, groups[to])
	}
}

// TestRetransmitMatchesEagerModel plays seeded scripts of proposals, serves,
// clock advances and freezes into an engine on a stub runtime and into
// eagerRetModel, and requires the same Requests (time, target, ids in
// order), the same ObserveTimeout calls and the same give-ups, from no more
// retransmission timers than the model arms. Serves deliver most requested
// ids, so most batches settle before their deadline and the engine skips
// their timers; ids given up on are proposed again, and timers due inside a
// freeze fire together at its end.
func TestRetransmitMatchesEagerModel(t *testing.T) {
	fewer := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const period = 300 * time.Millisecond
		maxAttempts, same := 1+rng.Intn(4), rng.Intn(4) == 0
		label := fmt.Sprintf("seed %d (RetMaxAttempts %d, RetSameProposer %v)", seed, maxAttempts, same)

		log := &timeoutLog{}
		rt := &stubRuntime{rng: rand.New(rand.NewSource(seed))}
		e := MustNew(Config{
			Fanout:          2,
			Sampler:         membership.NewDirectory(8).ViewFor(0),
			RetPeriod:       period,
			RetMaxAttempts:  maxAttempts,
			RetSameProposer: same,
			ExpectedPackets: 64,
			Observers:       []Observer{log},
		})
		var got []sentRequest
		rt.onSend = func(m wire.Message) {
			if r, ok := m.(*wire.Request); ok {
				got = append(got, sentRequest{rt.now, rt.lastTo, slices.Clone(r.IDs)})
			}
		}
		retArms := 0
		rt.onArm = func(fn func()) {
			if st := e.lookupStream(0); st != nil && reflect.ValueOf(fn).Pointer() == reflect.ValueOf(st.retFireFn).Pointer() {
				retArms++
			}
		}
		e.Start(rt)
		m := newEagerRetModel(period, maxAttempts, same)

		ids := func(n, span int) []wire.PacketID {
			out := make([]wire.PacketID, 0, n)
			for range n {
				if id := wire.PacketID(rng.Intn(span)); !slices.Contains(out, id) {
					out = append(out, id)
				}
			}
			return out
		}
		span := 20 + rng.Intn(60)
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				from, batch := wire.NodeID(1+rng.Intn(6)), ids(1+rng.Intn(6), span)
				e.Receive(from, &wire.Propose{IDs: batch})
				m.propose(from, batch)
			case k < 7:
				batch := ids(1+rng.Intn(6), span)
				events := make([]wire.Event, len(batch))
				for i, id := range batch {
					events[i] = wire.Event{ID: id, Payload: []byte{byte(id)}}
				}
				e.Receive(wire.NodeID(1+rng.Intn(6)), &wire.Serve{Events: events})
				m.serve(batch)
			case k < 9:
				to := rt.now + time.Duration(rng.Intn(400))*time.Millisecond
				rt.advance(to)
				m.rt.advance(to)
			default:
				// A freeze defers every timer due inside it to its end.
				rt.frozenUntil = rt.now + time.Duration(rng.Intn(900))*time.Millisecond
				m.rt.frozenUntil = rt.frozenUntil
			}
		}
		rt.advance(rt.now + 10*period)
		m.rt.advance(rt.now)

		if len(got) != len(m.requests) {
			t.Fatalf("%s: %d requests, model %d", label, len(got), len(m.requests))
		}
		for i, r := range got {
			w := m.requests[i]
			if r.at != w.at || r.to != w.to || !slices.Equal(r.ids, w.ids) {
				t.Fatalf("%s: request %d is %+v, model %+v", label, i, r, w)
			}
		}
		if !slices.Equal(log.calls, m.timeouts) {
			t.Fatalf("%s: timeouts %v, model %v", label, log.calls, m.timeouts)
		}
		if gu := e.Stats().GiveUps; gu != int64(m.giveUps) {
			t.Fatalf("%s: %d give-ups, model %d", label, gu, m.giveUps)
		}
		if retArms > m.armed {
			t.Fatalf("%s: %d retransmission timers armed, model %d", label, retArms, m.armed)
		}
		if retArms < m.armed {
			fewer++
		}
		if st := e.lookupStream(0); st != nil && !st.ret.empty() {
			t.Fatalf("%s: %d batches left queued after every deadline passed", label, st.ret.bLen)
		}
	}
	if fewer == 0 {
		t.Fatal("no script armed fewer retransmission timers than the model: nothing settled early")
	}
}
