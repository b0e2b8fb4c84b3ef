package env

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeRuntime drives handlers without a network.
type fakeRuntime struct {
	now    time.Duration
	late   time.Duration // every timer fires this much after its due time
	timers []*fakeTimer
	sent   []wire.NodeID
}

type fakeTimer struct {
	at    time.Duration
	fn    func()
	fired bool
}

var _ Runtime = (*fakeRuntime)(nil)

func (f *fakeRuntime) ID() wire.NodeID    { return 3 }
func (f *fakeRuntime) Now() time.Duration { return f.now }
func (f *fakeRuntime) Rand() *rand.Rand   { return rand.New(rand.NewSource(1)) }
func (f *fakeRuntime) Send(to wire.NodeID, _ wire.Message) {
	f.sent = append(f.sent, to)
}
func (f *fakeRuntime) AfterFunc(d time.Duration, fn func()) {
	f.timers = append(f.timers, &fakeTimer{at: f.now + d + f.late, fn: fn})
}

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

func TestTickerPhaseAndPeriod(t *testing.T) {
	rt := &fakeRuntime{}
	var fires []time.Duration
	NewTicker(rt, 3*time.Millisecond, 10*time.Millisecond, func() {
		fires = append(fires, rt.Now())
	})
	for i := 0; i < 4; i++ {
		if !rt.fire() {
			t.Fatal("no timer pending")
		}
	}
	want := []time.Duration{3 * time.Millisecond, 13 * time.Millisecond, 23 * time.Millisecond, 33 * time.Millisecond}
	for i, w := range want {
		if fires[i] != w {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], w)
		}
	}
}

// TestTickerKeepsScheduleWhenLate fires every timer δ late, as a wall-clock
// runtime does: tick k must land at phase + k·period + δ, each late wake-up
// delaying only its own tick rather than adding up to k·δ.
func TestTickerKeepsScheduleWhenLate(t *testing.T) {
	const phase, period, late = 3 * time.Millisecond, 10 * time.Millisecond, 2 * time.Millisecond
	rt := &fakeRuntime{late: late}
	var fires []time.Duration
	NewTicker(rt, phase, period, func() { fires = append(fires, rt.Now()) })
	for k := 0; k < 50; k++ {
		if !rt.fire() {
			t.Fatal("no timer pending")
		}
		if want := phase + time.Duration(k)*period + late; fires[k] != want {
			t.Fatalf("tick %d at %v, want %v", k, fires[k], want)
		}
	}
}

func TestTickerStopPreventsFutureFires(t *testing.T) {
	rt := &fakeRuntime{}
	count := 0
	tk := NewTicker(rt, 0, time.Millisecond, func() { count++ })
	rt.fire()
	rt.fire()
	tk.Stop()
	for rt.fire() {
	}
	if count != 2 {
		t.Fatalf("ticker fired %d times after Stop, want 2", count)
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	rt := &fakeRuntime{}
	count := 0
	var tk *Ticker
	tk = NewTicker(rt, 0, time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	for rt.fire() {
	}
	if count != 3 {
		t.Fatalf("ticker fired %d times, want exactly 3", count)
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period accepted")
		}
	}()
	NewTicker(&fakeRuntime{}, 0, 0, func() {})
}

func TestHandlerFunc(t *testing.T) {
	var got wire.NodeID
	h := HandlerFunc(func(from wire.NodeID, _ wire.Message) { got = from })
	h.Start(&fakeRuntime{}) // no-op
	h.Receive(42, &wire.Propose{})
	h.Stop() // no-op
	if got != 42 {
		t.Fatalf("handler func got %d", got)
	}
}

type lifecycleHandler struct {
	starts, stops, receives int
}

func (h *lifecycleHandler) Start(Runtime)                     { h.starts++ }
func (h *lifecycleHandler) Receive(wire.NodeID, wire.Message) { h.receives++ }
func (h *lifecycleHandler) Stop()                             { h.stops++ }

func TestMuxLifecycleAndRouting(t *testing.T) {
	mux := NewMux()
	a := &lifecycleHandler{}
	b := &lifecycleHandler{}
	mux.Register(a, wire.KindPropose, wire.KindRequest)
	mux.Register(b, wire.KindServe)

	mux.Start(&fakeRuntime{})
	if a.starts != 1 || b.starts != 1 {
		t.Fatal("not all handlers started")
	}
	mux.Receive(1, &wire.Propose{})
	mux.Receive(1, &wire.Request{})
	mux.Receive(1, &wire.Serve{})
	if a.receives != 2 || b.receives != 1 {
		t.Fatalf("routing wrong: a=%d b=%d", a.receives, b.receives)
	}
	mux.Stop()
	if a.stops != 1 || b.stops != 1 {
		t.Fatal("not all handlers stopped")
	}
}

func TestMuxWithoutFallbackDropsUnrouted(t *testing.T) {
	mux := NewMux()
	a := &lifecycleHandler{}
	mux.Register(a, wire.KindPropose)
	mux.Start(&fakeRuntime{})
	mux.Receive(1, &wire.Aggregate{}) // silently dropped
	if a.receives != 0 {
		t.Fatal("unrouted message reached a handler")
	}
}

func TestMuxDuplicateRegistrationPanics(t *testing.T) {
	mux := NewMux()
	mux.Register(&lifecycleHandler{}, wire.KindPropose)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate kind registration accepted")
		}
	}()
	mux.Register(&lifecycleHandler{}, wire.KindPropose)
}

// alienMsg is a message of a kind the mux has no route slot for.
type alienMsg struct{ *wire.Propose }

func (alienMsg) Kind() wire.Kind { return 16 }

func TestMuxOutOfRangeKind(t *testing.T) {
	mux := NewMux()
	a := &lifecycleHandler{}
	mux.Register(a, wire.KindPropose, 15)
	mux.Receive(1, alienMsg{}) // no slot: dropped
	if a.receives != 0 {
		t.Fatal("out-of-range kind reached a handler")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registration beyond the route table accepted")
		}
	}()
	mux.Register(&lifecycleHandler{}, 16)
}

func TestMuxLifecycleOnlyRegistration(t *testing.T) {
	// Registering with no kinds attaches lifecycle (Start/Stop) without
	// routing — used for the stream source.
	mux := NewMux()
	a := &lifecycleHandler{}
	mux.Register(a)
	mux.Start(&fakeRuntime{})
	mux.Stop()
	if a.starts != 1 || a.stops != 1 {
		t.Fatal("lifecycle-only handler not started/stopped")
	}
}
