// Package aggregation implements the gossip-based aggregation protocol of
// HEAP (Algorithm 2 of the paper): every node periodically gossips the
// freshest upload-capability values it knows, merges what it receives by
// freshness, and maintains a running estimate of the system-wide average
// capability. The ratio between a node's own capability and that estimate
// drives HEAP's fanout adaptation:
//
//	f_i = fbar · b_i / bbar
//
// The paper reports the protocol gossips the 10 freshest capabilities every
// 200 ms at a cost of about 1 KB/s (§3.1), which corresponds to one
// aggregation partner per round; the fanout of the aggregation gossip is
// configurable here (AggFanout).
//
// The package also provides Averager, a Jelasity-style push-pull averaging
// protocol usable for continuous system-size estimation — the paper invokes
// this possibility ([13], §2.2) but assumes n is known; we implement it as
// an extension.
package aggregation

import (
	"time"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/wire"
)

// Config parameterizes the capability estimator.
type Config struct {
	// SelfCapKbps is this node's advertised upload capability. The paper
	// assumes it is either user-provided or measured at join time (§2.2).
	SelfCapKbps uint32
	// Period is the aggregation gossip period. Default 200 ms (§3.1).
	Period time.Duration
	// Fanout is how many peers receive each aggregation message. Default 1,
	// which matches the paper's ~1 KB/s budget.
	Fanout int
	// FreshestK is how many entries each message carries. Default 10 (§3.1).
	FreshestK int
	// EntryTTL ages out capability entries so that crashed nodes stop
	// biasing the average. Default 15 s.
	EntryTTL time.Duration
	// Sampler provides the random peers to gossip with.
	Sampler membership.Sampler
	// Exclude, when non-nil, rejects capability claims owned by the given
	// node: its entries are dropped on merge and purged on the tick path.
	// This is the misbehavior detector's fanout penalty — a quarantined
	// peer's (possibly inflated) claim leaves bbar, handing its stolen
	// fanout share back to honest nodes. Applied to the claim's owner,
	// regardless of which peer relayed it; relaying resumes on release.
	Exclude func(wire.NodeID) bool
	// TrackLimit, when > 0, tracks capability entries only for node ids
	// below the limit. At million-node scale the per-node dense entry table
	// and its O(entries) tick-path scans make the whole system O(n²); a
	// track limit caps both at O(limit) per node. Because node ids carry no
	// capability bias (caps are assigned by seeded rng, not by id), the
	// tracked prefix is an unbiased sample and bbar converges to the same
	// system average. A node whose own id is outside the limit still knows
	// its own capability exactly — the estimate simply comes entirely from
	// the sampled prefix. Zero means track everything.
	TrackLimit int
}

func (c *Config) applyDefaults() {
	if c.Period == 0 {
		c.Period = 200 * time.Millisecond
	}
	if c.Fanout == 0 {
		c.Fanout = 1
	}
	if c.FreshestK == 0 {
		c.FreshestK = 10
	}
	if c.EntryTTL == 0 {
		c.EntryTTL = 15 * time.Second
	}
}

type capEntry struct {
	capKbps uint32
	asOf    time.Duration // local-clock time the value was measured at its owner
	present bool
}

// Estimator is the per-node capability aggregation service. It implements
// env.Handler for wire.Aggregate messages. Not safe for concurrent use; all
// access happens on the node's execution context.
//
// Node ids are dense, so entries live in a flat slice indexed by id, and the
// running sum/count are maintained incrementally: merging a received message
// is O(entries in the message) and reading the estimate is O(1), regardless
// of system size. (The previous map-backed version re-summed every known
// entry on every receive — O(n) per message, ruinous at 10k+ nodes.)
type Estimator struct {
	cfg Config
	rt  env.Runtime

	entries []capEntry // dense by node id
	count   int        // present entries
	sum     uint64     // sum of present capKbps

	// freshHeap (max by asOf) and expHeap (min by asOf) index the entries
	// by freshness with lazy invalidation: every set pushes the new
	// (id, asOf) pair onto both; a pair is live only while it still matches
	// its entry. They turn the tick path's top-k selection and TTL aging
	// from O(entries) scans into O(k log m) pops — the difference between
	// feasible and not at million-node scale, where every node ticks five
	// times a simulated second. Selection results are identical to the
	// scans': same (asOf desc, id asc) order, same expiry instants.
	freshHeap []freshPair
	expHeap   []freshPair

	ticker *env.Ticker

	// cached estimate, refreshed on every mutation
	estimateKbps float64

	// selScratch is freshest's top-k selection scratch, reused across
	// ticks; peerScratch the per-tick sampling buffer.
	selScratch  []selEntry
	peerScratch []wire.NodeID

	// MessagesSent counts aggregation messages (for overhead accounting).
	MessagesSent int
}

type selEntry struct {
	id wire.NodeID
	ce capEntry
}

// freshPair is one lazily-invalidated heap record: the entry for id as of
// the moment it was set. It is live iff the entry is still present with
// exactly this asOf.
type freshPair struct {
	id   wire.NodeID
	asOf time.Duration
}

// fresherPair is the freshness order shared by the heap and the legacy scan:
// newer first, smaller id on ties — a strict total order, so top-k is unique.
func fresherPair(a, b freshPair) bool {
	if a.asOf != b.asOf {
		return a.asOf > b.asOf
	}
	return a.id < b.id
}

func (e *Estimator) live(p freshPair) bool {
	return int(p.id) < len(e.entries) && e.entries[p.id].present && e.entries[p.id].asOf == p.asOf
}

// pushHeap/popHeap are one sift implementation parameterized by order;
// less(a, b) means a belongs nearer the top.
func pushHeap(h []freshPair, p freshPair, less func(a, b freshPair) bool) []freshPair {
	h = append(h, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func popHeap(h []freshPair, less func(a, b freshPair) bool) ([]freshPair, freshPair) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && less(h[r], h[child]) {
			child = r
		}
		if !less(h[child], h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return h, top
}

// olderPair orders the expiry heap: oldest asOf first. EntryTTL is constant,
// so asOf order is expiry order.
func olderPair(a, b freshPair) bool { return a.asOf < b.asOf }

// maxTrackedNodeID bounds the dense entry slice against hostile wire input:
// node ids are dense, so a million-node ceiling is far beyond any deployment
// this codebase targets while capping what one datagram can make us allocate.
const maxTrackedNodeID = 1 << 20

var _ env.Handler = (*Estimator)(nil)

// NewEstimator builds an Estimator. The sampler must not be nil.
func NewEstimator(cfg Config) *Estimator {
	cfg.applyDefaults()
	if cfg.Sampler == nil {
		panic("aggregation: nil sampler")
	}
	if cfg.SelfCapKbps == 0 {
		panic("aggregation: zero self capability")
	}
	return &Estimator{
		cfg:          cfg,
		estimateKbps: float64(cfg.SelfCapKbps),
	}
}

// tracked reports whether id falls inside the dense entry table. With no
// TrackLimit every valid id is tracked.
func (e *Estimator) tracked(id wire.NodeID) bool {
	return e.cfg.TrackLimit <= 0 || int(id) < e.cfg.TrackLimit
}

// set inserts or replaces the entry for id, keeping sum/count current.
// Callers gate on tracked(id).
func (e *Estimator) set(id wire.NodeID, capKbps uint32, asOf time.Duration) {
	for int(id) >= len(e.entries) {
		e.entries = append(e.entries, capEntry{})
	}
	slot := &e.entries[id]
	if slot.present {
		e.sum -= uint64(slot.capKbps)
	} else {
		slot.present = true
		e.count++
	}
	slot.capKbps = capKbps
	slot.asOf = asOf
	e.sum += uint64(capKbps)
	e.freshHeap = pushHeap(e.freshHeap, freshPair{id, asOf}, fresherPair)
	e.expHeap = pushHeap(e.expHeap, freshPair{id, asOf}, olderPair)
	// Superseded pairs are discarded when they surface at a heap top, but
	// below the surface they pile up (a refreshed entry's old pair sinks in
	// freshHeap and lingers in expHeap until its would-be expiry). Rebuild a
	// heap from the live entries once dead pairs outnumber live ones —
	// amortized O(log) per set, and it bounds both heaps at 2x the entry
	// table, which is what keeps per-node memory flat at million-node scale.
	if len(e.freshHeap) > 64 && len(e.freshHeap) > 2*e.count {
		e.freshHeap = rebuildHeap(e.freshHeap[:0], e.entries, fresherPair)
	}
	if len(e.expHeap) > 64 && len(e.expHeap) > 2*e.count {
		e.expHeap = rebuildHeap(e.expHeap[:0], e.entries, olderPair)
	}
}

// rebuildHeap repopulates h (cleared, capacity retained) with one pair per
// present entry.
func rebuildHeap(h []freshPair, entries []capEntry, less func(a, b freshPair) bool) []freshPair {
	for id := range entries {
		if entries[id].present {
			h = pushHeap(h, freshPair{wire.NodeID(id), entries[id].asOf}, less)
		}
	}
	return h
}

// drop removes the entry for id, keeping sum/count current.
func (e *Estimator) drop(id wire.NodeID) {
	slot := &e.entries[id]
	if !slot.present {
		return
	}
	e.sum -= uint64(slot.capKbps)
	e.count--
	*slot = capEntry{}
}

// Start implements env.Handler.
func (e *Estimator) Start(rt env.Runtime) {
	e.rt = rt
	if e.tracked(rt.ID()) {
		e.set(rt.ID(), e.cfg.SelfCapKbps, rt.Now())
	}
	e.recompute()
	phase := time.Duration(rt.Rand().Int63n(int64(e.cfg.Period)))
	e.ticker = env.NewTicker(rt, phase, e.cfg.Period, e.tick)
}

// Stop implements env.Handler.
func (e *Estimator) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
	}
}

func (e *Estimator) tick() {
	now := e.rt.Now()
	// Refresh own entry: it is always the freshest thing we know.
	if e.tracked(e.rt.ID()) {
		e.set(e.rt.ID(), e.cfg.SelfCapKbps, now)
	}
	e.prune(now)
	e.recompute()

	fresh := e.freshest(e.cfg.FreshestK, now)
	if len(fresh) == 0 {
		return
	}
	e.peerScratch = e.cfg.Sampler.AppendPeers(e.peerScratch[:0], e.rt.Rand(), e.cfg.Fanout)
	for _, p := range e.peerScratch {
		// Each recipient gets its own message value, but entry slices are
		// shared; receivers must not mutate (env contract).
		e.rt.Send(p, &wire.Aggregate{Entries: fresh})
		e.MessagesSent++
	}
}

// Receive implements env.Handler, merging entries by freshness. Merging is
// O(len(msg)); aging out stale entries stays on the tick path.
func (e *Estimator) Receive(_ wire.NodeID, m wire.Message) {
	agg, ok := m.(*wire.Aggregate)
	if !ok {
		return
	}
	now := e.rt.Now()
	for _, entry := range agg.Entries {
		if entry.Node == e.rt.ID() || entry.Node < 0 || entry.Node >= maxTrackedNodeID {
			// Own value is always freshest; negative or absurdly large ids
			// are hostile/corrupt wire input (ids are dense, and the dense
			// entry slice must not grow unboundedly on a peer's say-so).
			continue
		}
		if !e.tracked(entry.Node) {
			continue // outside the sampled prefix, see Config.TrackLimit
		}
		if e.cfg.Exclude != nil && e.cfg.Exclude(entry.Node) {
			continue // quarantined claim owner, see Config.Exclude
		}
		asOf := now - time.Duration(entry.AgeMs)*time.Millisecond
		if int(entry.Node) < len(e.entries) {
			if cur := &e.entries[entry.Node]; cur.present && cur.asOf >= asOf {
				continue // ours is fresher
			}
		}
		e.set(entry.Node, entry.CapKbps, asOf)
	}
	e.recompute()
}

// SetSelfCapKbps rewrites the node's advertised capability mid-run (netem
// capability traces, measured-capacity drift). The new value takes effect
// locally at once and reaches peers through the normal freshness gossip —
// exactly how the paper expects re-measured capabilities to propagate.
// Panics on zero, like NewEstimator.
func (e *Estimator) SetSelfCapKbps(kbps uint32) {
	if kbps == 0 {
		panic("aggregation: zero self capability")
	}
	e.cfg.SelfCapKbps = kbps
	if e.rt != nil {
		if e.tracked(e.rt.ID()) {
			e.set(e.rt.ID(), kbps, e.rt.Now())
		}
		e.recompute()
	}
}

// EstimateKbps returns the current estimate of the system-wide average
// upload capability (bbar), in kbps. Before any exchange it equals the
// node's own capability.
func (e *Estimator) EstimateKbps() float64 { return e.estimateKbps }

// RelativeCapability returns b_i / bbar, the fanout multiplier of HEAP.
func (e *Estimator) RelativeCapability() float64 {
	if e.estimateKbps <= 0 {
		return 1
	}
	return float64(e.cfg.SelfCapKbps) / e.estimateKbps
}

// KnownNodes returns how many nodes currently contribute to the estimate.
func (e *Estimator) KnownNodes() int { return e.count }

func (e *Estimator) prune(now time.Duration) {
	self := e.rt.ID()
	if e.cfg.Exclude != nil {
		// Quarantine purging has no expiry instant to index by, so detector
		// runs keep the full scan (they are small-n by construction).
		for id := range e.entries {
			entry := &e.entries[id]
			if !entry.present || wire.NodeID(id) == self {
				continue
			}
			if now-entry.asOf > e.cfg.EntryTTL {
				e.drop(wire.NodeID(id))
				continue
			}
			if e.cfg.Exclude(wire.NodeID(id)) {
				e.drop(wire.NodeID(id)) // quarantined since merged, see Config.Exclude
			}
		}
		return
	}
	// Lazy expiry: pop oldest-first until the top is inside the TTL. Dead
	// pairs (superseded by a fresher set) are discarded on the way — this is
	// where expHeap self-cleans.
	for len(e.expHeap) > 0 && now-e.expHeap[0].asOf > e.cfg.EntryTTL {
		var p freshPair
		e.expHeap, p = popHeap(e.expHeap, olderPair)
		if e.live(p) && p.id != self {
			e.drop(p.id)
		}
	}
}

func (e *Estimator) recompute() {
	if e.count == 0 {
		e.estimateKbps = float64(e.cfg.SelfCapKbps)
		return
	}
	// sum is maintained with integer arithmetic, so the estimate is
	// independent of merge order — whole-system runs stay bit-reproducible.
	e.estimateKbps = float64(e.sum) / float64(e.count)
}

// freshest returns up to k entries with the most recent asOf, encoded with
// their current age. O(k log m) heap selection with reusable scratch; only
// the returned slice is freshly allocated (it escapes into the outgoing
// message).
func (e *Estimator) freshest(k int, now time.Duration) []wire.CapEntry {
	if k > e.count {
		k = e.count
	}
	if k <= 0 {
		return nil
	}
	// Pop the freshness heap newest-first, discarding dead pairs, until k
	// live distinct entries are in hand; then push the winners back. Pop
	// order is exactly the scan's (asOf desc, id asc) total order, so the
	// selected set — and the message bytes — are unchanged.
	best := e.selScratch[:0]
	for len(e.freshHeap) > 0 && len(best) < k {
		var p freshPair
		e.freshHeap, p = popHeap(e.freshHeap, fresherPair)
		if !e.live(p) {
			continue
		}
		// Two live pairs for one id exist only when an entry was rewritten
		// with an identical asOf (same-instant self refresh); keep the first.
		dup := false
		for i := range best {
			if best[i].id == p.id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		best = append(best, selEntry{p.id, e.entries[p.id]})
	}
	for _, b := range best {
		e.freshHeap = pushHeap(e.freshHeap, freshPair{b.id, b.ce.asOf}, fresherPair)
	}
	out := make([]wire.CapEntry, len(best))
	for i, b := range best {
		age := now - b.ce.asOf
		if age < 0 {
			age = 0
		}
		out[i] = wire.CapEntry{
			Node:    b.id,
			CapKbps: b.ce.capKbps,
			AgeMs:   uint32(age / time.Millisecond),
		}
	}
	e.selScratch = best[:0]
	return out
}
