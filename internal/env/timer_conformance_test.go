package env_test

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/simnet"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// The timer contract of env.Runtime.AfterFunc, checked against both
// runtimes: the simulator's virtual clock and the UDP runtime's event loop on
// the wall clock.

// session is one node booted on a runtime under test.
type session struct {
	run   func(d time.Duration) // let the node run for d of its clock
	exec  func(fn func())       // run fn serialized with the node's callbacks
	close func()                // stop the node: udpnet's Close, simnet's Crash
	exact bool                  // virtual time: timers fire exactly when due
}

var runtimes = []struct {
	name  string
	start func(t *testing.T, h env.Handler) *session
}{
	{"simnet", func(t *testing.T, h env.Handler) *session {
		net := simnet.New(simnet.Config{Seed: 1})
		id := net.AddNode(h, simnet.NodeConfig{})
		net.Run(0)
		return &session{
			run:   func(d time.Duration) { net.Run(net.Now() + d) },
			exec:  func(fn func()) { fn() },
			close: func() { net.Crash(id) },
			exact: true,
		}
	}},
	{"udpnet", func(t *testing.T, h env.Handler) *session {
		n, err := udpnet.NewNode(0, h, udpnet.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		return &session{
			run: time.Sleep,
			exec: func(fn func()) {
				if !n.Execute(fn) {
					fn() // closed: nothing runs concurrently anymore
				}
			},
			close: n.Close,
		}
	}},
}

// startHandler runs fn as the node's Start.
type startHandler func(rt env.Runtime)

func (f startHandler) Start(rt env.Runtime)              { f(rt) }
func (f startHandler) Receive(wire.NodeID, wire.Message) {}
func (f startHandler) Stop()                             {}

// snapshot copies what get returns, serialized with the node's callbacks.
func snapshot(s *session, get func() []int) []int {
	var out []int
	s.exec(func() { out = slices.Clone(get()) })
	return out
}

func forEachRuntime(t *testing.T, test func(t *testing.T, start func(env.Handler) *session)) {
	for _, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			test(t, func(h env.Handler) *session { return rt.start(t, h) })
		})
	}
}

// TestTimerOrder: timers fire in due order, and timers due at the same
// instant in the order they were armed.
func TestTimerOrder(t *testing.T) {
	delays := []time.Duration{30, 10, 20, 10, 0, 20, 0}
	forEachRuntime(t, func(t *testing.T, start func(env.Handler) *session) {
		var fired []int
		s := start(startHandler(func(rt env.Runtime) {
			for i, d := range delays {
				rt.AfterFunc(d*time.Millisecond, func() { fired = append(fired, i) })
			}
		}))
		s.run(60 * time.Millisecond)
		firedSoFar := func() []int { return fired }
		for waited := 0; waited < 200 && len(snapshot(s, firedSoFar)) < len(delays); waited++ {
			s.run(10 * time.Millisecond) // a wall clock may lag behind
		}
		if got, want := snapshot(s, firedSoFar), []int{4, 6, 1, 3, 2, 5, 0}; !slices.Equal(got, want) {
			t.Fatalf("timers fired in order %v, want %v", got, want)
		}
	})
}

// TestTimerFiresOnce: every armed timer fires, and fires once.
func TestTimerFiresOnce(t *testing.T) {
	const timers = 200
	forEachRuntime(t, func(t *testing.T, start func(env.Handler) *session) {
		counts := make([]int, timers)
		s := start(startHandler(func(rt env.Runtime) {
			rng := rand.New(rand.NewSource(7))
			for i := range counts {
				rt.AfterFunc(time.Duration(rng.Intn(20_000))*time.Microsecond, func() { counts[i]++ })
			}
		}))
		all := func() []int { return counts }
		s.run(30 * time.Millisecond) // all are due
		for waited := 0; waited < 200 && slices.Contains(snapshot(s, all), 0); waited++ {
			s.run(10 * time.Millisecond) // a wall clock may lag behind
		}
		s.run(30 * time.Millisecond)
		for i, c := range snapshot(s, all) {
			if c != 1 {
				t.Fatalf("timer %d fired %d times", i, c)
			}
		}
	})
}

// TestTimerNothingAfterClose: once the node is stopped, no timer armed
// before fires, however far out it was due.
func TestTimerNothingAfterClose(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, start func(env.Handler) *session) {
		var closed atomic.Bool
		var fired, late atomic.Int64
		s := start(startHandler(func(rt env.Runtime) {
			for i := 0; i < 64; i++ {
				rt.AfterFunc(time.Duration(i)*500*time.Microsecond, func() {
					fired.Add(1)
					if closed.Load() {
						late.Add(1)
					}
				})
			}
			rt.AfterFunc(60*time.Millisecond, func() { late.Add(1) })
		}))
		for fired.Load() == 0 { // stop the node once the spread has begun
			s.run(time.Millisecond)
		}
		s.close()
		closed.Store(true)
		before := fired.Load()
		s.run(80 * time.Millisecond)
		if late.Load() != 0 || fired.Load() != before {
			t.Fatalf("%d timers fired after the node stopped (%d before)", late.Load(), before)
		}
	})
}

// TestTickerKeepsPhase: an env.Ticker's k-th tick is due at phase + k·period
// and never fires before it, and over 1,000 periods its lateness does not
// pile up, as it would for a ticker re-armed one period after each firing.
func TestTickerKeepsPhase(t *testing.T) {
	const ticks = 1000
	const phase, period = 3 * time.Millisecond, time.Millisecond
	forEachRuntime(t, func(t *testing.T, start func(env.Handler) *session) {
		var at []time.Duration
		var start0 time.Duration
		done := make(chan struct{})
		s := start(startHandler(func(rt env.Runtime) {
			start0 = rt.Now()
			var tk *env.Ticker
			tk = env.NewTicker(rt, phase, period, func() {
				at = append(at, rt.Now())
				if len(at) == ticks {
					tk.Stop()
					close(done)
				}
			})
		}))
		for i := 0; i < 100; i++ {
			s.run(phase + ticks*period/50)
			select {
			case <-done:
				i = 100
			default:
			}
		}
		var got []time.Duration
		s.exec(func() { got = slices.Clone(at) })
		if len(got) != ticks {
			t.Fatalf("%d ticks, want %d", len(got), ticks)
		}
		var worst time.Duration
		for k, when := range got {
			late := when - (start0 + phase + time.Duration(k)*period)
			if late < 0 {
				t.Fatalf("tick %d fired %v early", k, -late)
			}
			if s.exact && late != 0 {
				t.Fatalf("tick %d fired %v late on virtual time", k, late)
			}
			if k >= ticks-100 {
				worst = max(worst, late)
			}
		}
		// Host noise alone can hold a wakeup for several milliseconds; a
		// drifting ticker would be about a second late by now.
		if worst > 100*time.Millisecond {
			t.Fatalf("the last 100 ticks ran up to %v late: the phase drifted", worst)
		}
		t.Logf("worst lateness over the last 100 ticks: %v", worst)
	})
}
