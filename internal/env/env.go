// Package env defines the execution environment abstraction that separates
// protocol logic from the substrate it runs on.
//
// Protocols (internal/core, internal/aggregation, internal/membership) are
// written as single-threaded reactive state machines implementing Handler.
// A Runtime drives them: the discrete-event simulator (internal/simnet) runs
// every node inside one deterministic event loop with virtual time, while
// the real-UDP runtime (internal/udpnet) drives the same code from socket
// readers and wall-clock timers under a per-node mutex.
//
// The contract that makes this work:
//
//   - A Handler is never invoked concurrently with itself.
//   - All handler callbacks (Start, Receive, timer functions) run in the
//     node's execution context; they may freely mutate node state.
//   - Handlers must not block, sleep, or spawn goroutines. The one
//     asynchrony primitive is Runtime.AfterFunc, and it cannot be canceled:
//     a callback that may have become moot checks the handler's own state
//     when it fires (Ticker.done, a pending-request record) and returns.
//   - Messages received through Receive are immutable; handlers must not
//     modify them.
//   - A received message is valid only until Receive returns (see
//     Handler.Receive): the UDP runtime decodes the next datagram over it,
//     and the simulator recycles its copy for a later send.
//   - A sent message is lent to the runtime only for the Send call (see
//     Runtime.Send): the UDP runtime encodes it and the simulator copies
//     it, so a sender owns its message again once Send returns and may
//     reuse one message, and one slice, for every send.
package env

import (
	"math/rand"
	"time"

	"repro/internal/wire"
)

// Timer is not part of Runtime, whose one timer call cannot be canceled. It
// remains only because the benchmark module's stub runtime returns it from an
// After method of its own; it goes when that method does.
type Timer interface{ Stop() bool }

// Runtime is the node-side interface to the substrate.
type Runtime interface {
	// ID returns this node's identity.
	ID() wire.NodeID

	// Now returns the elapsed time since the run epoch. In the simulator
	// this is virtual time; over UDP it is wall-clock time since start.
	Now() time.Duration

	// Send transmits m to the destination node, asynchronously and
	// unreliably (datagram semantics: messages may be lost, delayed, or
	// reordered, but are never corrupted or duplicated). Sending to an
	// unknown or dead node silently drops the message, like UDP.
	//
	// Send reads m and keeps nothing of it, neither m nor a slice from
	// inside it, after it returns: the UDP runtime encodes the datagram
	// before returning, and the simulator carries its own copy. The one
	// exception is a Serve's payload bytes, which the copy shares and which
	// nobody modifies. Send does not modify m, so a sender may pass the same
	// message to several Sends and overwrite it afterwards.
	Send(to wire.NodeID, m wire.Message)

	// AfterFunc schedules fn to run once in this node's execution context
	// after delay d. There is no handle and no cancel: a timer whose reason
	// went away still fires, and fn guards itself with a state check. That
	// lets both runtimes recycle the timer slot, so the call allocates
	// nothing in steady state. A d ≤ 0 runs fn as soon as possible.
	AfterFunc(d time.Duration, fn func())

	// Rand returns this node's private deterministic random stream. The
	// returned value is only valid for use inside handler callbacks.
	Rand() *rand.Rand
}

// Handler is one protocol instance living on one node.
type Handler interface {
	// Start is invoked exactly once, before any other callback, when the
	// node boots. The runtime is valid until Stop returns.
	Start(rt Runtime)

	// Receive is invoked for every message delivered to this node.
	//
	// m belongs to the runtime and is valid only until Receive returns: the
	// UDP runtime decodes every datagram into the same few reusable messages
	// (wire.Decoder), and the simulator recycles its copy (wire.Pool) as
	// soon as Receive returns. A handler may keep a Serve's payload bytes
	// (Event.Payload, or a copy of the Event value) for as long as it likes,
	// and nothing else: not m, and not a slice header from inside it (IDs,
	// Events, Entries, Descriptors) — copy the elements it needs.
	Receive(from wire.NodeID, m wire.Message)

	// Stop is invoked when the node shuts down (cleanly or by simulated
	// crash). After Stop, no further callbacks occur: the runtime discards
	// the pending timers, which a handler has no way to cancel itself.
	Stop()
}

// HandlerFunc adapts a plain receive function to the Handler interface, for
// tests and small tools.
type HandlerFunc func(from wire.NodeID, m wire.Message)

// Start implements Handler as a no-op.
func (HandlerFunc) Start(Runtime) {}

// Receive implements Handler by calling the function.
func (f HandlerFunc) Receive(from wire.NodeID, m wire.Message) { f(from, m) }

// Stop implements Handler as a no-op.
func (HandlerFunc) Stop() {}

var _ Handler = (HandlerFunc)(nil)

// Ticker repeatedly invokes a callback with a fixed period using
// Runtime.AfterFunc, the asynchrony primitive available to handlers. The
// first tick fires after an initial phase offset (commonly randomized so
// node periods do not synchronize system-wide). Each tick is armed for its
// place on the schedule, phase + k·period, not one period after the last
// firing, so a late wake-up delays one tick instead of every later one.
// Ticks are fire-and-forget: Stop flips a flag rather than canceling the
// pending timer, so a stopped ticker's last timer fires once more as a
// no-op — and the steady-state tick path allocates nothing.
type Ticker struct {
	rt     Runtime
	period time.Duration
	next   time.Duration // when the pending tick is due
	fn     func()
	tickFn func() // t.tick as a func value, bound once so ticks don't allocate
	done   bool
}

// NewTicker starts a ticker that first fires after phase and then every
// period. The callback runs in the node's execution context.
func NewTicker(rt Runtime, phase, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("env: ticker period must be positive")
	}
	t := &Ticker{rt: rt, period: period, next: rt.Now() + phase, fn: fn}
	t.tickFn = t.tick
	rt.AfterFunc(phase, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.done {
		return
	}
	t.next += t.period
	t.rt.AfterFunc(t.next-t.rt.Now(), t.tickFn)
	t.fn()
}

// Stop permanently cancels the ticker.
func (t *Ticker) Stop() {
	t.done = true
}

// Mux fans incoming messages out to multiple handlers by message kind, so a
// node can stack independent protocols (dissemination, aggregation, peer
// sampling) behind one Runtime.
type Mux struct {
	// routes is indexed by kind: Receive runs once per delivered message on
	// both substrates, and wire defines kinds 1-8. Sixteen slots, like
	// simnet's NodeStats.SentByKind — a full 256 would be 4 KB per node.
	routes   [16]Handler
	handlers []Handler // registration order, for Start/Stop
}

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{} }

// Register attaches h to the given message kinds. Registering the same kind
// twice, or a kind the route table has no slot for, panics: that is a wiring
// bug, not a runtime condition. Each Register call adds one entry to the
// Start/Stop order, so a handler serving several kinds must be registered
// with a single call listing all of them.
func (m *Mux) Register(h Handler, kinds ...wire.Kind) {
	for _, k := range kinds {
		if int(k) >= len(m.routes) {
			panic("env: mux registration for kind " + k.String() + " beyond the 16-slot route table")
		}
		if m.routes[k] != nil {
			panic("env: duplicate mux registration for kind " + k.String())
		}
		m.routes[k] = h
	}
	m.handlers = append(m.handlers, h)
}

// Start implements Handler, starting sub-handlers in registration order.
func (m *Mux) Start(rt Runtime) {
	for _, h := range m.handlers {
		h.Start(rt)
	}
}

// Receive implements Handler. A kind nothing registered for is dropped
// (datagram semantics).
func (m *Mux) Receive(from wire.NodeID, msg wire.Message) {
	if k := int(msg.Kind()); k < len(m.routes) && m.routes[k] != nil {
		m.routes[k].Receive(from, msg)
	}
}

// Stop implements Handler, stopping sub-handlers in reverse registration
// order.
func (m *Mux) Stop() {
	for i := len(m.handlers) - 1; i >= 0; i-- {
		m.handlers[i].Stop()
	}
}

var _ Handler = (*Mux)(nil)
