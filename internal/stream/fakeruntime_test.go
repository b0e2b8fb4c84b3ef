package stream

import (
	"math/rand"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// fakeRuntime is a minimal env.Runtime for driving handlers in unit tests
// without a full simulated network. Timers fire manually via fire().
type fakeRuntime struct {
	now    time.Duration
	timers []*fakeTimer
	sent   []sentMsg // copies: Send keeps nothing of the sender's message
	copies wire.Pool // never refilled, so every copy is fresh storage
}

type sentMsg struct {
	to wire.NodeID
	m  wire.Message
}

type fakeTimer struct {
	at    time.Duration
	fn    func()
	fired bool
}

var _ env.Runtime = (*fakeRuntime)(nil)

func (f *fakeRuntime) ID() wire.NodeID    { return 0 }
func (f *fakeRuntime) Now() time.Duration { return f.now }
func (f *fakeRuntime) Rand() *rand.Rand   { return rand.New(rand.NewSource(1)) }

func (f *fakeRuntime) Send(to wire.NodeID, m wire.Message) {
	f.sent = append(f.sent, sentMsg{to: to, m: f.copies.Copy(m)})
}

func (f *fakeRuntime) AfterFunc(d time.Duration, fn func()) {
	f.timers = append(f.timers, &fakeTimer{at: f.now + d, fn: fn})
}

// fire runs the earliest pending timer, advancing the clock to it. It
// returns false when no timer is pending.
func (f *fakeRuntime) fire() bool {
	var best *fakeTimer
	for _, t := range f.timers {
		if t.fired {
			continue
		}
		if best == nil || t.at < best.at {
			best = t
		}
	}
	if best == nil {
		return false
	}
	best.fired = true
	if best.at > f.now {
		f.now = best.at
	}
	best.fn()
	return true
}
