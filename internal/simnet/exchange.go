package simnet

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the sharded run loop: conservative-lookahead windows, the
// exchange barrier that merges cross-shard deliveries, and the global event
// queue (Schedule callbacks and node starts) that runs with all shards
// parked.
//
// The loop alternates two phases:
//
//	         T = earliest node event        tG = earliest global event
//	                  │                               │
//	   tG <= T ──► run the global batch at tG (starts, callbacks),
//	               shards parked, clocks synced to tG
//	   tG >  T ──► window [T, W1): every shard processes its own events
//	               with at < W1 in parallel, W1 = min(T+L, tG, until+1)
//	               └─► barrier: merge outboxes into destination queues
//
// L is the latency model's MinLatency. A datagram sent at s ∈ [T, W1)
// arrives no earlier than s + L >= T + L >= W1, so deliveries created inside
// a window can never be due inside it — the barrier merge is always in time.
// Windows fast-forward: T jumps straight to the next due event, so idle
// stretches cost nothing regardless of L.

// maxTime is beyond any virtual timestamp a run can reach.
const maxTime = time.Duration(1<<62 - 1)

// gkind discriminates global events.
type gkind uint8

const (
	gkindStart gkind = iota + 1
	gkindFunc
)

// gevent is one global-context event: a scheduled callback or a node start.
// Global events are totally ordered by (at, gseq) — scheduling order within
// an instant — and run before any node event at the same instant,
// regardless of shard count. They are rare (setup, churn, probes), so they
// are plain heap-allocated values, not pooled.
type gevent struct {
	at   time.Duration
	gseq uint64
	kind gkind
	node wire.NodeID // gkindStart
	fn   func()      // gkindFunc
}

func (n *Network) pushGlobal(ge gevent) {
	ge.gseq = n.gseq
	n.gseq++
	n.globals = append(n.globals, ge)
	i := len(n.globals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !gLess(n.globals[i], n.globals[parent]) {
			break
		}
		n.globals[i], n.globals[parent] = n.globals[parent], n.globals[i]
		i = parent
	}
}

func (n *Network) popGlobal() gevent {
	ge := n.globals[0]
	last := len(n.globals) - 1
	n.globals[0] = n.globals[last]
	n.globals[last] = gevent{}
	n.globals = n.globals[:last]
	i, size := 0, last
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && gLess(n.globals[r], n.globals[child]) {
			child = r
		}
		if !gLess(n.globals[child], n.globals[i]) {
			break
		}
		n.globals[i], n.globals[child] = n.globals[child], n.globals[i]
		i = child
	}
	return ge
}

func gLess(a, b gevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.gseq < b.gseq
}

// Run processes events until virtual time exceeds until or no events remain.
func (n *Network) Run(until time.Duration) {
	if n.running {
		panic("simnet: re-entrant Run")
	}
	n.running = true
	defer func() { n.running = false }()

	sequential := len(n.shards) == 1
	for {
		tS := maxTime
		for _, sh := range n.shards {
			if at := sh.peek(); at < tS {
				tS = at
			}
		}
		tG := maxTime
		if len(n.globals) > 0 {
			tG = n.globals[0].at
		}
		t := tS
		if tG < t {
			t = tG
		}
		if t > until {
			break
		}
		if tG <= tS {
			// Global batch: park the shards (they already are), sync every
			// clock to tG, run same-instant callbacks and starts in
			// scheduling order.
			n.advanceTo(tG)
			n.runGlobalsAt(tG)
			continue
		}
		// Window [tS, w1). Sequential runs need no barrier safety, so they
		// run straight to the next global event (or the horizon).
		w1 := tG
		if !sequential {
			if ahead := tS + n.lookahead; ahead < w1 {
				w1 = ahead
			}
		}
		if u := until + 1; u < w1 {
			w1 = u
		}
		n.runWindow(w1, sequential)
		n.exchange()
	}
	n.advanceTo(until)
}

// RunUntilIdle processes all remaining events.
func (n *Network) RunUntilIdle() {
	n.Run(maxTime - 1)
}

// advanceTo moves the global clock and every idle shard clock forward to t
// (never backward).
func (n *Network) advanceTo(t time.Duration) {
	if t > n.now {
		n.now = t
	}
	for _, sh := range n.shards {
		if sh.now < n.now {
			sh.now = n.now
		}
	}
}

// runGlobalsAt drains every global event due at or before t, in (at, gseq)
// order. Callbacks may push more globals at the same instant (AddNode from a
// join wave, chained Schedules); those join the batch.
func (n *Network) runGlobalsAt(t time.Duration) {
	for len(n.globals) > 0 && n.globals[0].at <= t {
		ge := n.popGlobal()
		n.gstats.EventsProcessed++
		switch ge.kind {
		case gkindStart:
			nd := &n.nodes[ge.node]
			if nd.alive && !nd.started {
				nd.started = true
				nd.handler.Start(&nodeRuntime{net: n, id: nd.id})
			}
		case gkindFunc:
			ge.fn()
		}
	}
}

// runWindow lets every shard with due work process its events with at < w1.
// Sequential runs execute inline and mirror the shard clock into the global
// clock; sharded runs fan out to one goroutine per active shard and join at
// the barrier.
func (n *Network) runWindow(w1 time.Duration, sequential bool) {
	n.inWindow = true
	if sequential {
		n.shards[0].runUntil(w1, true)
		n.inWindow = false
		return
	}
	active := n.active[:0]
	for _, sh := range n.shards {
		if sh.peek() < w1 {
			active = append(active, sh)
		}
	}
	n.active = active
	if len(active) == 1 {
		active[0].runUntil(w1, false)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(active))
		for _, sh := range active {
			go func(s *shard) {
				defer wg.Done()
				s.runUntil(w1, false)
			}(sh)
		}
		wg.Wait()
	}
	n.inWindow = false
}

// exchange is the barrier merge: every cross-shard delivery buffered during
// the window moves into its destination shard's queue. Queue order is the
// canonical (at, src, srcSeq) total order, so merge order cannot influence
// dispatch order — it only has to be complete.
func (n *Network) exchange() {
	for _, src := range n.shards {
		for di, box := range src.outbox {
			if len(box) == 0 {
				continue
			}
			dst := n.shards[di]
			for i, ev := range box {
				dst.push(ev)
				box[i] = nil
			}
			src.outbox[di] = box[:0]
		}
	}
}
