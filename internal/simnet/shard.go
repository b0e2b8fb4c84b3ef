package simnet

import (
	"time"

	"repro/internal/wire"
)

// shard is one slice of the simulation: the nodes with id ≡ idx (mod S),
// their pending events in a calendar queue, and a private event pool.
// Between exchange barriers a shard runs with no locks and touches only
// state it owns — its queue, its pool, its nodes' mutable rows — plus
// read-only cross-shard node fields (alive, crashedAt, frozen bounds) that
// are written exclusively in the global context while shards are parked.
type shard struct {
	net *Network
	idx int32
	now time.Duration

	// The event queue: a three-tier calendar queue (R. Brown, CACM 1988)
	// that pops in exactly the canonical (at, src, srcSeq) order. A bucket
	// is the 2^bucketShift ns of virtual time sharing one bucketOf(at).
	//
	//	cur   every queued event whose bucket is at or behind the cursor, in
	//	      a small binary heap on the full key
	//	ring  the next ringLen-1 buckets, each an unordered list threaded
	//	      through event.next (an event is never both free and queued),
	//	      so a push is two stores and allocates nothing
	//	far   events at or beyond cursor+ringLen, in a heap like cur's
	//
	// The one invariant: cur ≤ every ring bucket ≤ far by bucket number, so
	// ties need the full key inside cur only. advance keeps it: it unlinks
	// a whole bucket into cur when the cursor reaches it and migrates far's
	// head into the ring as the horizon moves over it.
	cur    entHeap
	ring   [ringLen]*event
	far    entHeap
	cursor int64 // bucket number being drained through cur
	inRing int   // events linked into ring
	steps  int64 // cursor moves (one per bucket visited or idle jump)

	free *event // free list of recycled event slots

	// msgs holds the copies of the messages in flight: send copies into the
	// sending shard's pool, and recycle returns each copy to the pool of the
	// shard that popped it — for a cross-shard delivery, the receiver's.
	msgs wire.Pool

	stats Stats

	// outbox buffers cross-shard deliveries created inside a window, one
	// slice per destination shard, merged into the destination queues at the
	// barrier (exchange). Outside windows — setup, Schedule callbacks —
	// sends push straight into the destination shard instead.
	outbox [][]*event
}

// event kinds
type eventKind uint8

const (
	evDeliver eventKind = iota + 1
	evTimer
)

// event is one scheduled occurrence. Events are pooled: dispatched events
// return to a shard free list and are reused by later sends and timers, so
// the steady-state hot path allocates nothing. Nothing outside the queue
// refers to a queued event (timers have no handles), so a slot leaves the
// queue only by being popped. Slots follow their events across shards: a
// cross-shard delivery, and its message copy, is allocated from the sender's
// pools and recycled into the receiver's.
//
// (at, src, srcSeq) is the canonical total order: src is the node that
// created the event (the sender for deliveries, the owner for timers) and
// srcSeq its private sequence number. The key depends only on the creator's
// own deterministic history, so it is identical at every shard count — the
// invariant the whole sharded design rests on.
type event struct {
	at     time.Duration
	src    wire.NodeID // creating node: delivery sender / timer owner
	kind   eventKind
	srcSeq uint64

	// evDeliver
	to       wire.NodeID
	msg      wire.Message
	txFinish time.Duration // when the datagram left the sender's uplink
	size     int           // wire size incl UDP overhead

	// evTimer
	fn func()

	next *event // free-list link, or ring-bucket link while queued
}

// eventBlockSize is how many event slots one pool refill allocates: big
// enough to amortize allocation to noise, small enough not to bloat tiny
// simulations.
const eventBlockSize = 128

// alloc takes an event slot from the shard's free list, refilling it with a
// fresh block when empty.
func (s *shard) alloc() *event {
	if s.free == nil {
		block := make([]event, eventBlockSize)
		for i := range block[1:] {
			block[i].next = &block[i+1]
		}
		s.free = &block[0]
	}
	ev := s.free
	s.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a dispatched event to the free list and its message copy
// to the shard's message pool, dropping references so neither pool pins
// closures or payloads.
func (s *shard) recycle(ev *event) {
	ev.kind = 0
	s.msgs.Put(ev.msg) // a timer's nil is a no-op
	ev.msg = nil
	ev.fn = nil
	ev.next = s.free
	s.free = ev
}

// runUntil processes every queued event due strictly before w1, in
// canonical order. syncGlobalNow mirrors the shard clock into the network
// clock — only legal in sequential (single-shard) runs, where it keeps
// Network.Now exact for code written against the pre-sharding API.
func (s *shard) runUntil(w1 time.Duration, syncGlobalNow bool) {
	for s.peek() < w1 {
		ev := s.pop()
		s.now = ev.at
		if syncGlobalNow {
			s.net.now = ev.at
		}
		s.stats.EventsProcessed++
		// Only events that left the schedule go back to the pool.
		if !s.dispatch(ev) {
			s.recycle(ev)
		}
	}
}

// dispatch runs one event and reports whether it re-queued it instead: a
// frozen node's timers and deliveries are deferred to its unfreeze instant.
func (s *shard) dispatch(ev *event) (deferred bool) {
	switch ev.kind {
	case evTimer:
		node := &s.net.nodes[ev.src]
		if !node.alive {
			return false
		}
		if node.frozenUntil > s.now {
			ev.at = node.frozenUntil
			s.push(ev)
			return true
		}
		ev.fn()
	case evDeliver:
		return s.deliver(ev)
	}
	return false
}

func (s *shard) deliver(ev *event) (deferred bool) {
	sender := &s.net.nodes[ev.src]
	// A datagram that had not finished leaving the sender's uplink when the
	// sender crashed is lost with it.
	if !sender.alive && sender.crashedAt < ev.txFinish {
		s.stats.MsgsDeadDrop++
		return false
	}
	dst := &s.net.nodes[ev.to]
	if !dst.alive {
		s.stats.MsgsDeadDrop++
		return false
	}
	if dst.frozenUntil > s.now {
		ev.at = dst.frozenUntil
		s.push(ev)
		return true
	}
	s.stats.MsgsDelivered++
	dst.stats.RecvBytes += int64(ev.size)
	dst.stats.RecvMsgs++
	dst.handler.Receive(ev.src, ev.msg)
	return false
}

// send implements Runtime.Send for a node. It runs on the sender's shard
// (handler context) or in the global context (Schedule callbacks, setup);
// either way the sender's row, rngs, and sequence are touched only here.
func (n *Network) send(from *simNode, to wire.NodeID, m wire.Message) {
	sh := n.shards[from.shard]
	now := sh.now
	if int(to) < 0 || int(to) >= len(n.nodes) {
		sh.stats.MsgsDeadDrop++
		return
	}
	size := m.WireSize() + wire.UDPOverheadBytes
	sh.stats.MsgsSent++
	sh.stats.BytesSent += int64(size)
	from.stats.SentMsgs++
	from.stats.SentBytes += int64(size)
	if k := int(m.Kind()); k >= 0 && k < len(from.stats.SentByKind) {
		from.stats.SentByKind[k] += int64(size)
	}
	if sm, ok := m.(wire.Streamed); ok {
		slot := int(sm.StreamOf())
		if slot >= streamStatSlots {
			slot = streamStatSlots - 1
		}
		from.stats.SentByStream[slot] += int64(size)
	}
	// Region labels are written only in the global context (AddNode), so the
	// destination row's label is a safe cross-shard read.
	if n.cfg.RegionOf != nil && from.region != n.nodes[to].region {
		from.stats.InterRegionBytes += int64(size)
		from.stats.InterRegionMsgs++
	}

	// Uplink serialization: the message transmits after everything already
	// queued. Zero capacity means unconstrained.
	start := now
	if from.uplinkFreeAt > start {
		start = from.uplinkFreeAt
	}
	var serTime time.Duration
	if from.cfg.UploadBps > 0 {
		bits := int64(size) * 8
		serTime = time.Duration(bits * int64(time.Second) / from.cfg.UploadBps)
		if n.cfg.MaxQueueDelay > 0 && start-now > n.cfg.MaxQueueDelay {
			sh.stats.MsgsTailDrop++
			return
		}
	}
	txFinish := start + serTime
	from.uplinkFreeAt = txFinish
	from.stats.QueueDelay = txFinish - now

	// The netem model rules on the datagram here — after serialization (a
	// dropped datagram still consumed the uplink: it left the sender), before
	// propagation. Schedule-driven models are judged at txFinish, the
	// instant the datagram actually reaches the wire: a backlogged uplink
	// can push a datagram into (or past) a partition or spike window that
	// was not active when it was enqueued. Draws come from the sender's own
	// transmit rng, so the stream is a function of the sender's history
	// alone — independent of shard interleaving.
	verdict := n.netem.Judge(from.id, to, size, txFinish, from.txRng)
	if verdict.Drop {
		sh.stats.MsgsLost++
		return
	}
	lat := n.latency.Latency(from.id, to, from.sent)
	from.sent++
	if verdict.Delay > 0 {
		lat += verdict.Delay
		sh.stats.MsgsNetemDelay++
	}
	ev := sh.alloc()
	ev.at = txFinish + lat
	ev.kind = evDeliver
	ev.src = from.id
	ev.srcSeq = from.seq
	from.seq++
	ev.to = to
	// Send keeps nothing of m (env.Runtime.Send): the event carries a copy,
	// made only now that the datagram survived the tail-drop and netem.
	ev.msg = sh.msgs.Copy(m)
	ev.txFinish = txFinish
	ev.size = size
	dst := n.shards[n.nodes[to].shard]
	if dst == sh || !n.inWindow {
		// Intra-shard delivery never waits for a barrier; global-context
		// sends push directly because every shard is parked.
		dst.push(ev)
		return
	}
	// Cross-shard, mid-window: hand off at the barrier. The lookahead
	// guarantees ev.at >= the window bound, so the receiver cannot need it
	// before then.
	sh.outbox[dst.idx] = append(sh.outbox[dst.idx], ev)
}

// Bucket width and ring length are constants, not knobs. Measured push
// delays (uplink backlog plus propagation, seed 17): 99.97 % of sim-paper's
// 2.1 M pushes and 99.8 % of sim-large's 1.2 M land inside the ≈ 4.3 s
// horizon, and what lands beyond it — end-of-stream timers, 0.03 % and
// 0.17 % of pushes — costs one small-heap push in far. A ≈ 1 ms bucket
// drains into a cur of at most 65 entries on the first and 135 on the
// second, where the heap this replaced held 8,857 and 23,694.
//
// maxNodes is the node-id ceiling AddNode enforces: entKey packs src into
// the nodeBits above a seqBits-wide srcSeq, so a larger id would alias a
// smaller one in the tie-break and silently break shard-count invariance.
const (
	bucketShift = 20   // a bucket is 2^20 ns ≈ 1.05 ms of virtual time
	ringLen     = 4096 // ring buckets (a power of two): a ≈ 4.3 s horizon
	nodeBits    = 20
	maxNodes    = 1 << nodeBits
	seqBits     = 64 - nodeBits
)

// bucketOf is the number of the bucket a due time falls in.
func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

// heapEnt is one slot of the cur and far heaps: the canonical ordering key
// inlined next to the event pointer, so sift comparisons never chase the
// event pointer into pool memory.
type heapEnt struct {
	at  time.Duration
	key uint64 // src (nodeBits) packed above srcSeq (seqBits)
	ev  *event
}

// entKey packs (src, srcSeq) into one comparable word. Node ids stay below
// maxNodes; per-node sequence numbers cannot plausibly reach 2^seqBits in a
// simulated run. Under those bounds uint64 order equals (src, srcSeq)
// lexicographic order.
func entKey(ev *event) uint64 {
	return uint64(uint32(ev.src))<<seqBits | (ev.srcSeq & (1<<seqBits - 1))
}

// entLess is the canonical event order: virtual time, then creating node,
// then the creator's private sequence — a total order identical at every
// shard count.
func entLess(a, b heapEnt) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

// entHeap is a binary min-heap in entLess order. Events leave it only from
// the top, so it keeps no back-pointers into the events.
type entHeap []heapEnt

func (h *entHeap) push(ev *event) {
	*h = append(*h, heapEnt{at: ev.at, key: entKey(ev), ev: ev})
	h.up(len(*h) - 1)
}

// pop deletes and returns the earliest event.
func (h *entHeap) pop() *event {
	old := *h
	ev, last := old[0].ev, len(old)-1
	old[0], old[last] = old[last], heapEnt{}
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	return ev
}

func (h entHeap) up(i int) {
	ent := h[i]
	for p := (i - 1) / 2; i > 0 && entLess(ent, h[p]); p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = ent
}

func (h entHeap) down(i int) {
	ent := h[i]
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && entLess(h[c+1], h[c]) {
			c++
		}
		if !entLess(h[c], ent) {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = ent
}

// push queues an event in the tier its bucket belongs to now; at, src, and
// srcSeq must already be set. The rare push at or behind the cursor goes
// straight into cur: zero-delay timers, freeze deferrals, and global-context
// sends that land behind a cursor peek already moved ahead.
func (s *shard) push(ev *event) {
	switch d := bucketOf(ev.at) - s.cursor; {
	case d <= 0:
		s.cur.push(ev)
	case d < ringLen:
		slot := &s.ring[(s.cursor+d)&(ringLen-1)]
		ev.next, *slot = *slot, ev
		s.inRing++
	default:
		s.far.push(ev)
	}
}

// advance refills an empty cur and reports whether anything is queued: the
// cursor steps to the next non-empty bucket — or, when the ring is empty,
// jumps straight to far's earliest, so idle stretches cost nothing — far's
// head moves into the ring as the horizon passes over it, and the bucket's
// whole list is unlinked into cur.
func (s *shard) advance() bool {
	for len(s.cur) == 0 && s.inRing+len(s.far) > 0 {
		s.steps++
		if s.cursor++; s.inRing == 0 {
			s.cursor = bucketOf(s.far[0].at)
		}
		for len(s.far) > 0 && bucketOf(s.far[0].at)-s.cursor < ringLen {
			s.push(s.far.pop())
		}
		for slot := &s.ring[s.cursor&(ringLen-1)]; *slot != nil; s.inRing-- {
			ev := *slot
			*slot, ev.next = ev.next, nil
			s.cur.push(ev)
		}
	}
	return len(s.cur) > 0
}

// peek returns when the earliest queued event is due, maxTime if none is.
func (s *shard) peek() time.Duration {
	if !s.advance() {
		return maxTime
	}
	return s.cur[0].at
}

// pop removes and returns the earliest event.
func (s *shard) pop() *event {
	s.advance()
	return s.cur.pop()
}
