package udpnet

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// host is the event loop every started Node of the process runs on: one
// goroutine, the simulator's queue discipline on the wall clock. A turn
// pops the due timers in (due, arm order) and runs each under its node's
// mutex, asks each node's paced sender that is due or notified for the run
// its clock has released and flushes it, sleeps until the earliest due time
// (plus timerSlack), a readable socket or a poke, and then reads, decodes
// and dispatches each readable socket's batch under its node's mutex. The
// loop starts with the first Node.Start and exits after the last Close.
//
// Locks are taken node mutex first, host mutex second, never the other way
// round: the loop pops under the host mutex and runs what it popped after
// releasing it.
type host struct {
	w    waiter
	base time.Time // the timer clock's zero
	done chan struct{}
	// parked is true from the moment the loop last looked at the queue and
	// the pacers until its wait returns; whoever clears it while it is set
	// owes the loop a poke.
	parked atomic.Bool

	mu       sync.Mutex
	timers   timerHeap
	seq      uint64 // arm order
	nodes    []*Node
	socks    map[uint32]*Node // by readiness token
	stopping bool             // the last node left: no poke after this, the loop closes the waiter

	// Loop-private: one decoder per window position, shared by every node
	// (a message is valid only until Receive returns), and the window.
	decoders [ioBatchMax]wire.Decoder
	msgs     []inMsg
}

// timerSlack is how long after the earliest due time the loop sleeps when
// nothing else wakes it. The live stack's timers — tickers, retransmission
// timeouts, the source's stream clock, the pacers' release times — are due
// every few hundred microseconds across a host's nodes; firing each one
// alone costs a wakeup apiece, and a millisecond of lateness is what the Go
// runtime's own timers allowed them before.
const timerSlack = time.Millisecond

// inMsg is one decoded frame of a receive window.
type inMsg struct {
	sender wire.NodeID
	msg    wire.Message
	src    int // frame index, for the source-address check
}

var (
	hostMu  sync.Mutex // orders joins and leaves, and guards cur, lastTok and openWaiter
	cur     *host      // the running loop, if any
	lastTok uint32     // readiness tokens are never reused; the waiter may reserve the first few

	// openWaiter makes the next loop's waiter: the platform's (newWaiter),
	// or the portable one where a test asks for it.
	openWaiter = newWaiter
)

// join registers a starting node with the running loop, starting one if
// there is none, and returns the loop.
func join(n *Node) (*host, error) {
	hostMu.Lock()
	defer hostMu.Unlock()
	h, fresh := cur, cur == nil
	if fresh {
		w, err := openWaiter()
		if err != nil {
			return nil, err
		}
		h = &host{w: w, base: time.Now(), done: make(chan struct{}), socks: make(map[uint32]*Node)}
	}
	lastTok++
	n.token = lastTok
	h.mu.Lock()
	err := h.w.add(n, n.token)
	if err == nil {
		h.nodes = append(h.nodes, n)
		h.socks[n.token] = n
	}
	h.mu.Unlock()
	if err != nil {
		if fresh {
			h.w.close()
		}
		return nil, err
	}
	if fresh {
		cur = h
		go h.run()
	}
	return h, nil
}

// leave unregisters a closing node: its socket leaves the poll set before
// it is closed, and its timers and delayed datagrams leave the queue, so
// nothing of the loop keeps its stack reachable. The last node to leave
// stops the loop and waits for it to exit.
func (h *host) leave(n *Node) {
	hostMu.Lock()
	h.mu.Lock()
	h.w.remove(n, n.token)
	delete(h.socks, n.token)
	h.nodes = slices.DeleteFunc(h.nodes, func(m *Node) bool { return m == n })
	kept := h.timers[:0]
	for _, e := range h.timers {
		switch {
		case e.n != n:
			kept = append(kept, e)
		case e.fn == nil:
			putSendBuf(e.d.buf)
		}
	}
	clear(h.timers[len(kept):])
	h.timers = kept
	h.timers.init()
	last := len(h.nodes) == 0
	if last {
		h.w.poke()
		h.stopping = true
		cur = nil
	}
	h.mu.Unlock()
	hostMu.Unlock()
	if last {
		<-h.done
	}
}

// push arms e after the given delay; an entry that becomes the earliest
// wakes a parked loop.
func (h *host) push(e timerEnt, after time.Duration) {
	e.due = time.Since(h.base) + max(after, 0)
	h.mu.Lock()
	h.seq++
	e.seq = h.seq
	h.timers.push(e)
	first := h.timers[0].seq == e.seq
	h.mu.Unlock()
	if first {
		h.wake()
	}
}

// wake pokes the loop if it is parked. From the loop's own callbacks it
// costs one atomic load: the loop is not parked while it runs them.
func (h *host) wake() {
	if !h.parked.Load() || !h.parked.CompareAndSwap(true, false) {
		return
	}
	h.mu.Lock()
	if !h.stopping {
		h.w.poke()
	}
	h.mu.Unlock()
}

func (h *host) run() {
	defer close(h.done)
	var (
		due   []timerEnt
		nodes []*Node
		ready []uint32
		rx    []*Node
	)
	for {
		h.mu.Lock()
		if h.stopping {
			h.mu.Unlock()
			h.w.close()
			return
		}
		now := time.Since(h.base)
		for len(h.timers) > 0 && h.timers[0].due <= now {
			due = append(due, h.timers.pop())
		}
		h.mu.Unlock()
		for i := range due {
			due[i].fire()
			due[i] = timerEnt{}
		}
		due = due[:0]

		// From here until the wait returns, a Send, an AfterFunc or a join
		// from outside the loop that this turn does not see finds the loop
		// parked and pokes it.
		h.parked.Store(true)
		h.mu.Lock()
		nodes = append(nodes[:0], h.nodes...)
		next, timed := time.Duration(0), len(h.timers) > 0
		if timed {
			next = h.timers[0].due
		}
		h.mu.Unlock()
		t := time.Now()
		for _, n := range nodes {
			// A pacer is stepped when its next item is due or its sender
			// notified (an item entered the ring its last step left empty,
			// or the rate changed); an idle one costs an atomic load.
			if n.pacerDirty.Load() && n.pacerDirty.Swap(false) || !n.pacerDue.IsZero() && !n.pacerDue.After(t) {
				n.pacerDue = n.sender.Release(t)
			}
			if !n.pacerDue.IsZero() {
				if d := n.pacerDue.Sub(h.base); !timed || d < next {
					next, timed = d, true
				}
			}
		}
		clear(nodes)
		var until time.Time
		if timed {
			// Timer slack: the loop sleeps until timerSlack after the
			// earliest due time, so the timers and pacers due within that
			// window share one wakeup; whatever is due when the loop wakes
			// for any reason runs at once.
			if next > time.Since(h.base) {
				next += timerSlack
			}
			until = h.base.Add(next)
		}
		ready = h.w.wait(until, ready[:0])
		h.parked.Store(false)

		if len(ready) == 0 {
			continue
		}
		h.mu.Lock()
		for _, tok := range ready {
			if n := h.socks[tok]; n != nil {
				rx = append(rx, n)
			}
		}
		h.mu.Unlock()
		for i, n := range rx {
			if count, err := h.w.read(n, n.token); err == nil {
				h.dispatch(n, count)
			}
			h.w.consumed(n.token)
			rx[i] = nil
		}
		rx = rx[:0]
	}
}

// dispatch takes a read batch in windows of at most ioBatchMax frames. Each
// frame of a window is decoded where it lies in the socket's staging buffer,
// with the window's decoder for its position, so every message of the
// window stays valid until all of them have been dispatched under one
// node-mutex hold, and a warm loop allocates nothing to decode however long
// the trains grow. Messages die with the next window, which env.Handler's
// lifetime rule allows; what a handler may keep is a Serve's payload bytes
// (the engine buffers them to serve later), so Serve bodies — only those —
// are copied into one arena allocation per window before they are decoded.
func (h *host) dispatch(n *Node, count int) {
	isServe := func(f []byte) bool { return len(f) > frameHeader && wire.Kind(f[frameHeader]) == wire.KindServe }
	for lo := 0; lo < count; lo += ioBatchMax {
		hi := min(count, lo+ioBatchMax)
		total := 0
		for i := lo; i < hi; i++ {
			if f := n.bio.Frame(i); isServe(f) {
				total += len(f) - frameHeader
			}
		}
		arena := make([]byte, 0, total) // no allocation when the window has no Serve
		msgs := h.msgs[:0]
		badFrames := 0
		for i := lo; i < hi; i++ {
			f := n.bio.Frame(i)
			if len(f) < frameHeader {
				badFrames++
				continue
			}
			body := f[frameHeader:]
			if isServe(f) {
				start := len(arena)
				arena = append(arena, body...)
				body = arena[start:len(arena):len(arena)]
			}
			msg, err := h.decoders[i-lo].Unmarshal(body)
			if err != nil {
				badFrames++
				continue
			}
			msgs = append(msgs, inMsg{
				sender: wire.NodeID(int32(binary.BigEndian.Uint32(f))),
				msg:    msg,
				src:    i,
			})
		}
		n.mu.Lock()
		n.decodeErrors += badFrames
		if !n.closed {
			for _, im := range msgs {
				// Verify the claimed sender against the source address when
				// we know it; unknown peers are accepted (late directory
				// updates).
				if known, ok := n.peers[im.sender]; !ok || n.bio.SrcMatches(im.src, known) {
					n.handler.Receive(im.sender, im.msg)
				}
			}
		}
		n.mu.Unlock()
		clear(msgs)
		h.msgs = msgs[:0]
	}
}

// timerEnt is one armed AfterFunc, or — fn nil — one netem-delayed datagram
// that enters its node's paced sender when due.
type timerEnt struct {
	due time.Duration // on the host's clock
	seq uint64        // arm order: the tie-break
	n   *Node
	fn  func()
	d   outDatagram
}

// fire runs the entry in its node's execution context; a closed node's
// entries do nothing but return a delayed datagram's buffer.
func (e *timerEnt) fire() {
	n := e.n
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.closed:
		if e.fn == nil {
			putSendBuf(e.d.buf)
		}
	case e.fn != nil:
		e.fn()
	case !n.sender.Enqueue(e.d):
		putSendBuf(e.d.buf)
	}
}

// timerHeap is a binary min-heap on (due, seq). A host holds a few hundred
// armed entries at most, so a plain heap is all the queue needs.
type timerHeap []timerEnt

func (q timerHeap) less(i, j int) bool {
	return q[i].due < q[j].due || q[i].due == q[j].due && q[i].seq < q[j].seq
}

func (q *timerHeap) push(e timerEnt) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

func (q *timerHeap) pop() timerEnt {
	h := *q
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h[last] = timerEnt{}
	*q = h[:last]
	q.down(0)
	return top
}

func (q timerHeap) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q timerHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (q timerHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// waiter is the loop's one platform-specific part: how it sleeps until a
// socket is readable (wait_linux.go: epoll; wait_portable.go: a reader
// goroutine per socket). Timers, pacing, dispatch and Close are the same
// code everywhere. All methods but poke and close are called with the
// host mutex held (add, remove) or from the loop (wait, read, consumed).
type waiter interface {
	// add watches n's socket, reporting it ready as tok.
	add(n *Node, tok uint32) error
	// remove stops watching n's socket; it is called before the socket
	// closes.
	remove(n *Node, tok uint32)
	// wait sleeps until a watched socket is readable, until has passed
	// (never, for the zero Time; not at all, if it has passed already) or
	// poke is called, and appends the tokens of the readable sockets to
	// ready.
	wait(until time.Time, ready []uint32) []uint32
	// read returns how many frames the readable socket of n holds for the
	// loop to decode from n.bio; consumed says the loop is done with them.
	read(n *Node, tok uint32) (int, error)
	consumed(tok uint32)
	// poke ends a wait in progress, or the next one. It is called with the
	// host mutex held, never after close.
	poke()
	close()
	// counts returns the waiter's wake counters.
	counts() *wakeCounts
}

// wakeCounts are a loop's wake counters, which every node on it reports
// from Collect: the waits that parked the loop (found nothing ready and
// slept), the times a wait (re)set its deadline timer, and the pokes sent
// to end a wait. Parks per delivery is what a live session pays in wakeups.
type wakeCounts struct {
	parks, timerArms, pokes atomic.Uint64
}
