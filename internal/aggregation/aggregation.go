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
	"fmt"
	"math"
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
	// makes the whole system O(n²); a track limit caps it at O(limit) per
	// node. Because node ids carry no capability bias (caps are assigned by
	// seeded rng, not by id), the tracked prefix is an unbiased sample and
	// bbar converges to the same system average. A node whose own id is
	// outside the limit still knows its own capability exactly — the
	// estimate simply comes entirely from the sampled prefix. A limit also
	// presizes the table: NewEstimator allocates it once for every id below
	// the limit, so it never grows. Zero means track every id below
	// maxTrackedNodeID (2¹⁵), with the table grown as ids arrive; that
	// ceiling applies under any limit, so past 32,768 nodes the estimate is
	// the same unbiased sample of the id prefix.
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

// noEntry is asOf's value for an id the table holds no entry for. No wire age
// reaches back that far: an AgeMs of at most 2³² ms is under 50 days.
const noEntry time.Duration = math.MinInt64

// capSlot is one id's place in the table, 16 bytes on every GOARCH: asOf, the
// local-clock time the value was measured at its owner (noEntry where
// absent), the value, and for a present entry its place in its bucket's
// doubly linked list. next is the following entry's id or -1; prev is the
// preceding entry's id, or -(bucket+1) on the bucket's first entry, so
// unlinking never has to work out which bucket the entry is in. Ids below
// maxTrackedNodeID and buckets below maxBuckets make both fit an int16. An
// absent id's slot is {asOf: noEntry}.
type capSlot struct {
	asOf       time.Duration
	capKbps    uint32
	next, prev int16
}

// freshRec is one record of the freshest-k set: a copy of everything a message
// entry needs, so building a message never reads the table.
type freshRec struct {
	asOf    time.Duration
	id      wire.NodeID
	capKbps uint32
}

// Estimator is the per-node capability aggregation service. It implements
// env.Handler for wire.Aggregate messages. Not safe for concurrent use; all
// access happens on the node's execution context.
//
// Node ids are dense, so entries live in flat slices indexed by id, and the
// running sum/count are maintained incrementally: merging a received message
// is O(entries in the message) and reading the estimate is O(1), regardless
// of system size. The FreshestK entries a tick gossips are kept, not found:
// set files every write into the freshest-k set as it happens.
type Estimator struct {
	cfg Config
	rt  env.Runtime

	// slots is the table, dense by node id below limit, the first id
	// tracked refuses. Receive's freshness check and the links it then
	// rewrites share one slot.
	slots []capSlot
	limit wire.NodeID
	count int    // present entries
	sum   uint64 // sum of present capKbps

	// buckets is a ring of per-period lists (first entry id, or -1) that
	// files every present entry by asOf: bucket i, counted from the oldest
	// at slot tail, holds [oldest+i·Period, oldest+(i+1)·Period), and the
	// oldest also holds everything before it. The ring turns so that its
	// newest bucket holds the newest asOf seen. Two facts follow, and the
	// tick path rests on them: an entry in an older bucket is strictly
	// older than any entry in a newer one, and — the ring being more than
	// an EntryTTL long and no asOf being ahead of the clock — whatever is
	// behind the ring has already expired.
	buckets []int16
	tail    int
	oldest  time.Duration

	// top is the freshest-k set: the min(FreshestK, count) newest present
	// entries in message order (asOf descending, id ascending on ties). set
	// keeps it so; drop of a member clears topValid, and the next freshest
	// refills it from the ring.
	top      []freshRec
	topValid bool

	ticker *env.Ticker

	// cached estimate, refreshed on every mutation
	estimateKbps float64

	peerScratch []wire.NodeID // the per-tick sampling buffer

	// msg is the one Aggregate every tick sends, its entries the freshest
	// output: Send keeps nothing (env.Runtime.Send).
	msg wire.Aggregate

	// MessagesSent counts aggregation messages (for overhead accounting).
	MessagesSent int
}

// maxTrackedNodeID bounds the dense table: ids are filed as int16 links, and
// a lazily grown table costs hostile wire input at most 2¹⁵ × 16 B = 512 KB.
// Ids at or past it are never tracked (see Config.TrackLimit): past 32,768
// nodes the estimate comes from the id prefix below it, an unbiased sample.
const maxTrackedNodeID = 1 << 15

// maxBuckets bounds the ring, which is EntryTTL/Period long (the defaults
// need 77 buckets), so that a bucket head's -(bucket+1) fits an int16.
const maxBuckets = 1 << 15

// MaxFreshestK is the most entries a message can carry: wire.Aggregate
// encodes the count in one byte.
const MaxFreshestK = 255

var _ env.Handler = (*Estimator)(nil)

// ringLen is the bucket count of the ring: one bucket per period of TTL
// (rounded up), one for the period in progress, and one so the oldest bucket
// lies wholly beyond the TTL. c must hold positive Period and EntryTTL.
func (c *Config) ringLen() int64 {
	return int64((c.EntryTTL+c.Period-1)/c.Period) + 2
}

// Validate reports the first gossip setting NewEstimator refuses, with zero
// fields taking their defaults: a non-positive Period or EntryTTL, an
// EntryTTL more than maxBuckets-2 Periods long, or a FreshestK outside
// [1, MaxFreshestK]. SelfCapKbps and Sampler are a node's own and checked by
// NewEstimator alone.
func (c Config) Validate() error {
	c.applyDefaults()
	if c.Period <= 0 || c.EntryTTL <= 0 {
		return fmt.Errorf("aggregation: Period %v and EntryTTL %v must be positive", c.Period, c.EntryTTL)
	}
	if c.FreshestK < 1 || c.FreshestK > MaxFreshestK {
		return fmt.Errorf("aggregation: FreshestK %d outside [1, %d]", c.FreshestK, MaxFreshestK)
	}
	if c.ringLen() > maxBuckets {
		return fmt.Errorf("aggregation: EntryTTL %v is more than %d Periods of %v", c.EntryTTL, maxBuckets-2, c.Period)
	}
	return nil
}

// NewEstimator builds an Estimator. It panics on a nil sampler, a zero self
// capability, or a Config that Validate rejects.
func NewEstimator(cfg Config) *Estimator {
	cfg.applyDefaults()
	if cfg.Sampler == nil {
		panic("aggregation: nil sampler")
	}
	if cfg.SelfCapKbps == 0 {
		panic("aggregation: zero self capability")
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := int(cfg.ringLen())
	e := &Estimator{
		cfg:          cfg,
		limit:        maxTrackedNodeID,
		estimateKbps: float64(cfg.SelfCapKbps),
		buckets:      make([]int16, n),
		oldest:       -time.Duration(n-1) * cfg.Period, // newest bucket opens at the epoch
		top:          make([]freshRec, 0, cfg.FreshestK),
		topValid:     true,
	}
	for i := range e.buckets {
		e.buckets[i] = -1
	}
	if cfg.TrackLimit > 0 {
		e.limit = wire.NodeID(min(cfg.TrackLimit, maxTrackedNodeID))
		e.slots = make([]capSlot, 0, e.limit)
		e.grow(int(e.limit))
	}
	return e
}

// grow extends the table to n ids, none of them present.
func (e *Estimator) grow(n int) {
	old := len(e.slots)
	e.slots = append(e.slots, make([]capSlot, n-old)...)
	for i := old; i < n; i++ {
		e.slots[i].asOf = noEntry
	}
}

// tracked reports whether id may enter the table: it lies in [0, limit), the
// smaller of TrackLimit and maxTrackedNodeID. Negative ids and ids past the
// ceiling are hostile or corrupt wire input, or a node outside the sample.
func (e *Estimator) tracked(id wire.NodeID) bool {
	return id >= 0 && id < e.limit
}

// set inserts or replaces the entry for id, keeping sum/count, the ring and
// the freshest-k set current. Callers gate on tracked(id), and never pass an
// asOf older than the one the entry already holds: Receive merges strictly
// fresher claims only, and the node's own entry is rewritten at the clock.
func (e *Estimator) set(id wire.NodeID, capKbps uint32, asOf time.Duration) {
	if int(id) >= len(e.slots) {
		e.grow(int(id) + 1)
	}
	s := &e.slots[id]
	if s.asOf != noEntry {
		e.sum -= uint64(s.capKbps)
		e.unlink(s)
	} else {
		e.count++
	}
	s.capKbps, s.asOf = capKbps, asOf
	e.sum += uint64(capKbps)

	b := e.bucketOf(asOf)
	first := e.buckets[b]
	s.next, s.prev = first, int16(-b-1)
	if first >= 0 {
		e.slots[first].prev = int16(id)
	}
	e.buckets[b] = int16(id)
	if e.topValid {
		e.promote(freshRec{asOf, id, capKbps})
	}
}

// promote files r into the freshest-k set: an earlier record of r.id leaves,
// and r enters at its rank if that is within FreshestK. A full set turns away
// anything older than its last record on one compare — by set's invariant a
// member's rewrite is never older than the record it replaces, so what is
// turned away is no member.
func (e *Estimator) promote(r freshRec) {
	top := e.top
	n := len(top)
	if n == cap(top) && r.asOf < top[n-1].asOf {
		return
	}
	for i := range top {
		if top[i].id == r.id {
			n--
			copy(top[i:], top[i+1:])
			break
		}
	}
	i := n
	for i > 0 && (top[i-1].asOf < r.asOf || top[i-1].asOf == r.asOf && top[i-1].id > r.id) {
		i--
	}
	if i == cap(top) {
		return // ties the last record's asOf with a larger id
	}
	n = min(n+1, cap(top))
	top = top[:n]
	copy(top[i+1:], top[i:])
	top[i] = r
	e.top = top
}

// refill rebuilds the freshest-k set from the ring: whole buckets, newest
// first, through the same promote, until the set is full at a bucket boundary
// — anything in an older bucket is strictly older — or holds every entry.
func (e *Estimator) refill() {
	e.top = e.top[:0]
	n := len(e.buckets)
	for i := n - 1; len(e.top) < min(cap(e.top), e.count); i-- {
		for id := e.buckets[(e.tail+i)%n]; id >= 0; id = e.slots[id].next {
			e.promote(freshRec{e.slots[id].asOf, wire.NodeID(id), e.slots[id].capKbps})
		}
	}
	e.topValid = true
}

// bucketOf returns the ring slot asOf files under, first turning the ring if
// asOf is newer than its newest bucket.
func (e *Estimator) bucketOf(asOf time.Duration) int {
	if asOf < e.oldest {
		return e.tail
	}
	newest := int64(len(e.buckets) - 1)
	i := int64((asOf - e.oldest) / e.cfg.Period)
	if i > newest {
		e.turn(i - newest)
		i = newest
	}
	return (e.tail + int(i)) % len(e.buckets)
}

func (e *Estimator) unlink(s *capSlot) {
	if s.prev < 0 {
		e.buckets[-int(s.prev)-1] = s.next
	} else {
		e.slots[s.prev].next = s.next
	}
	if s.next >= 0 {
		e.slots[s.next].prev = s.prev
	}
}

// turn advances the ring by steps periods. Each step empties the oldest
// bucket into the one after it and reuses its slot as the newest: what falls
// behind the ring has expired, but it stays counted until the next tick
// prunes it, so it stays filed.
func (e *Estimator) turn(steps int64) {
	n := len(e.buckets)
	e.oldest += time.Duration(steps) * e.cfg.Period
	if steps > int64(n) {
		steps = int64(n) // by then every bucket has been emptied into one
	}
	for ; steps > 0; steps-- {
		next := (e.tail + 1) % n
		if carried := e.buckets[e.tail]; carried >= 0 {
			e.buckets[e.tail] = -1
			if last := e.buckets[next]; last < 0 {
				e.buckets[next] = carried
				e.slots[carried].prev = int16(-next - 1)
			} else {
				for e.slots[last].next >= 0 {
					last = e.slots[last].next
				}
				e.slots[last].next = carried
				e.slots[carried].prev = last
			}
		}
		e.tail = next
	}
}

// drop removes the present entry for id, keeping sum/count current. If the
// entry is no older than the freshest-k set's last record it is a member (or
// ties with one), and the set is invalidated: its replacement is somewhere in
// the ring.
func (e *Estimator) drop(id wire.NodeID) {
	s := &e.slots[id]
	if n := len(e.top); n > 0 && s.asOf >= e.top[n-1].asOf {
		e.topValid = false
	}
	e.sum -= uint64(s.capKbps)
	e.count--
	e.unlink(s)
	*s = capSlot{asOf: noEntry}
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

	e.msg.Entries = e.freshest(e.msg.Entries[:0], now)
	if len(e.msg.Entries) == 0 {
		return
	}
	e.peerScratch = e.cfg.Sampler.AppendPeers(e.peerScratch[:0], e.rt.Rand(), e.cfg.Fanout)
	for _, p := range e.peerScratch {
		e.rt.Send(p, &e.msg)
		e.MessagesSent++
	}
}

// Receive implements env.Handler, merging entries by freshness in
// O(len(msg)). An entry that arrives already older than EntryTTL is merged
// like any other and counts toward the estimate until the next tick prunes
// it: expiry happens on the tick path only.
func (e *Estimator) Receive(_ wire.NodeID, m wire.Message) {
	agg, ok := m.(*wire.Aggregate)
	if !ok {
		return
	}
	now := e.rt.Now()
	for _, entry := range agg.Entries {
		if entry.Node == e.rt.ID() || !e.tracked(entry.Node) {
			// Own value is always freshest; anything else untracked is
			// outside the sample or hostile (see tracked), and the dense
			// table must not grow on a peer's say-so.
			continue
		}
		if e.cfg.Exclude != nil && e.cfg.Exclude(entry.Node) {
			continue // quarantined claim owner, see Config.Exclude
		}
		asOf := now - time.Duration(entry.AgeMs)*time.Millisecond
		if int(entry.Node) < len(e.slots) && e.slots[entry.Node].asOf >= asOf {
			continue // ours is fresher
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

// prune drops every entry older than EntryTTL, then every entry Exclude
// rejects. Only a bucket that opens before the cutoff can hold an expired
// entry; the oldest bucket, which holds whatever fell behind the ring,
// always does.
func (e *Estimator) prune(now time.Duration) {
	cutoff := now - e.cfg.EntryTTL
	n := len(e.buckets)
	for i := 0; i < n && e.oldest+time.Duration(i)*e.cfg.Period < cutoff; i++ {
		for id := e.buckets[(e.tail+i)%n]; id >= 0; {
			next := e.slots[id].next
			if e.slots[id].asOf < cutoff {
				e.drop(wire.NodeID(id))
			}
			id = next
		}
	}
	if e.cfg.Exclude == nil {
		return
	}
	// Quarantine has no instant to index by; detector runs are small-n.
	self := e.rt.ID()
	for id := range e.slots {
		if e.slots[id].asOf != noEntry && wire.NodeID(id) != self && e.cfg.Exclude(wire.NodeID(id)) {
			e.drop(wire.NodeID(id)) // quarantined since merged, see Config.Exclude
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

// freshest appends the freshest-k set — up to FreshestK entries with the
// most recent asOf, newest first and smaller id first on ties — to dst,
// encoded with their current age.
func (e *Estimator) freshest(dst []wire.CapEntry, now time.Duration) []wire.CapEntry {
	if !e.topValid {
		e.refill()
	}
	for _, r := range e.top {
		dst = append(dst, wire.CapEntry{
			Node:    r.id,
			CapKbps: r.capKbps,
			AgeMs:   uint32(max(now-r.asOf, 0) / time.Millisecond),
		})
	}
	return dst
}
