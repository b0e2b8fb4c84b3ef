package membership

import (
	"math/rand"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// CyclonConfig parameterizes the gossip-based peer-sampling service.
type CyclonConfig struct {
	// ViewSize is the partial view capacity. Must exceed the largest
	// fanout the dissemination layer will request. Default 20.
	ViewSize int
	// ShuffleLen is the number of descriptors exchanged per shuffle.
	// Default 8.
	ShuffleLen int
	// Period is the shuffle interval. Default 1s.
	Period time.Duration
	// ReplyTimeout evicts the shuffle target if it does not answer in
	// time — Cyclon's failure-detection mechanism. Default 2s.
	ReplyTimeout time.Duration
}

func (c *CyclonConfig) applyDefaults() {
	if c.ViewSize == 0 {
		c.ViewSize = 20
	}
	if c.ShuffleLen == 0 {
		c.ShuffleLen = 8
	}
	if c.Period == 0 {
		c.Period = time.Second
	}
	if c.ReplyTimeout == 0 {
		c.ReplyTimeout = 2 * time.Second
	}
}

// Cyclon is a peer-sampling service in the style of Voulgaris, Gavidia and
// van Steen (JNSM 2005): nodes periodically swap slices of their partial
// views, replacing their oldest descriptor. The emergent communication graph
// is close to a random regular graph, so sampling the view approximates the
// uniform selection HEAP's analysis assumes — without global membership.
//
// Cyclon implements env.Handler for ShuffleReq/ShuffleReply messages and
// Sampler for the dissemination layer.
type Cyclon struct {
	cfg  CyclonConfig
	rt   env.Runtime
	view []wire.PeerDescriptor

	ticker    *env.Ticker
	timeoutFn func() // c.timeout as a func value, bound once in Start
	// pending is the in-flight shuffle target awaiting a reply, when the
	// shuffle went out, and the descriptors we sent it (to use as replacement
	// candidates). pendingSent is a buffer of its own, not the request's
	// slice: it outlives the Send, which keeps nothing.
	pendingTarget wire.NodeID
	pendingSince  time.Duration
	pendingSent   []wire.PeerDescriptor

	// req and reply are the one message of each kind this node sends, and
	// reply's descriptors the buffer every answer is sampled into.
	req   wire.ShuffleReq
	reply wire.ShuffleReply

	// Shuffles counts initiated shuffles (for tests/metrics).
	Shuffles int
	// Evictions counts peers dropped for not answering (failure detection).
	Evictions int
}

var (
	_ env.Handler = (*Cyclon)(nil)
	_ Sampler     = (*Cyclon)(nil)
)

// NewCyclon creates a peer-sampling service seeded with the given bootstrap
// peers (typically a handful of contact nodes).
func NewCyclon(cfg CyclonConfig, bootstrap []wire.NodeID) *Cyclon {
	cfg.applyDefaults()
	c := &Cyclon{cfg: cfg, pendingTarget: wire.NodeNone}
	for _, p := range bootstrap {
		if len(c.view) >= cfg.ViewSize {
			break
		}
		c.addDescriptor(wire.PeerDescriptor{Node: p, Age: 0})
	}
	return c
}

// Start implements env.Handler.
func (c *Cyclon) Start(rt env.Runtime) {
	c.rt = rt
	c.timeoutFn = c.timeout
	phase := time.Duration(rt.Rand().Int63n(int64(c.cfg.Period)))
	c.ticker = env.NewTicker(rt, phase, c.cfg.Period, c.shuffle)
}

// Stop implements env.Handler.
func (c *Cyclon) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// PeerCount returns the number of peers currently in the view.
func (c *Cyclon) PeerCount() int { return len(c.view) }

// AppendPeers implements Sampler by sampling the partial view without
// replacement.
func (c *Cyclon) AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	n := len(c.view)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		c.view[i], c.view[j] = c.view[j], c.view[i]
	}
	for i := 0; i < k; i++ {
		dst = append(dst, c.view[i].Node)
	}
	return dst
}

// AppendSplit implements Sampler: a partial view knows no clusters, so the
// split draw is a uniform AppendPeers of kIntra+kInter.
func (c *Cyclon) AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int) []wire.NodeID {
	return c.AppendPeers(dst, rng, max(kIntra, 0)+max(kInter, 0))
}

// ViewDescriptors returns a copy of the current view (for tests).
func (c *Cyclon) ViewDescriptors() []wire.PeerDescriptor {
	out := make([]wire.PeerDescriptor, len(c.view))
	copy(out, c.view)
	return out
}

// shuffle runs one Cyclon round: age the view, pick the oldest peer as the
// target, and swap ShuffleLen descriptors with it.
func (c *Cyclon) shuffle() {
	if len(c.view) == 0 {
		return
	}
	if c.pendingTarget != wire.NodeNone {
		// Previous shuffle still outstanding; its timeout handles eviction.
		return
	}
	oldest := 0
	for i := range c.view {
		c.view[i].Age++
		if c.view[i].Age > c.view[oldest].Age {
			oldest = i
		}
	}
	target := c.view[oldest].Node
	// Remove the target from the view; it is replaced by the exchange.
	c.view[oldest] = c.view[len(c.view)-1]
	c.view = c.view[:len(c.view)-1]

	sent := c.sampleDescriptors(c.pendingSent[:0], c.cfg.ShuffleLen-1)
	// Self descriptor with age 0 lets the target learn about us.
	sent = append(sent, wire.PeerDescriptor{Node: c.rt.ID(), Age: 0})

	c.pendingTarget = target
	c.pendingSince = c.rt.Now()
	c.pendingSent = sent
	c.rt.AfterFunc(c.cfg.ReplyTimeout, c.timeoutFn)
	c.Shuffles++
	c.req.Descriptors = append(c.req.Descriptors[:0], sent...)
	c.rt.Send(target, &c.req)
}

// timeout is a shuffle's reply deadline: no reply means the target failed
// (standard Cyclon eviction). Timers cannot be canceled, so the deadline of
// an answered shuffle fires too; it finds no shuffle pending, or a younger
// one whose own deadline is still ahead, and leaves it alone.
func (c *Cyclon) timeout() {
	if c.pendingTarget != wire.NodeNone && c.rt.Now()-c.pendingSince >= c.cfg.ReplyTimeout {
		c.pendingTarget = wire.NodeNone
		c.pendingSent = c.pendingSent[:0]
		c.Evictions++
	}
}

// Receive implements env.Handler.
func (c *Cyclon) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.ShuffleReq:
		c.reply.Descriptors = c.sampleDescriptors(c.reply.Descriptors[:0], c.cfg.ShuffleLen)
		c.rt.Send(from, &c.reply)
		c.merge(msg.Descriptors, c.reply.Descriptors, from)
	case *wire.ShuffleReply:
		if from != c.pendingTarget {
			return // late or stray reply
		}
		c.pendingTarget = wire.NodeNone
		c.merge(msg.Descriptors, c.pendingSent, from)
		c.pendingSent = c.pendingSent[:0]
	}
}

// sampleDescriptors appends up to k random descriptors from the view to dst
// (copies, not aliases).
func (c *Cyclon) sampleDescriptors(dst []wire.PeerDescriptor, k int) []wire.PeerDescriptor {
	n := len(c.view)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	rng := c.rt.Rand()
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		c.view[i], c.view[j] = c.view[j], c.view[i]
	}
	return append(dst, c.view[:k]...)
}

// merge folds received descriptors into the view, then the peer itself: the
// exchange is evidence it is alive, so it is (re)admitted fresh. received is
// the peer's message and is only read (env contract).
func (c *Cyclon) merge(received, shipped []wire.PeerDescriptor, from wire.NodeID) {
	for _, d := range received {
		c.admit(d, shipped)
	}
	c.admit(wire.PeerDescriptor{Node: from, Age: 0}, shipped)
}

// admit folds one descriptor into the view: skip self and duplicates (keeping
// the fresher copy), fill a free slot, else replace an entry that was shipped
// to the peer (Cyclon's swap semantics), else the oldest entry.
func (c *Cyclon) admit(d wire.PeerDescriptor, shipped []wire.PeerDescriptor) {
	if d.Node == c.rt.ID() {
		return
	}
	if i := indexOf(c.view, d.Node); i >= 0 {
		if d.Age < c.view[i].Age {
			c.view[i].Age = d.Age
		}
		return
	}
	if len(c.view) < c.cfg.ViewSize {
		c.view = append(c.view, d)
		return
	}
	// Prefer evicting a descriptor we just shipped; else the oldest.
	victim := -1
	for i := range c.view {
		if indexOf(shipped, c.view[i].Node) >= 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range c.view {
			if c.view[i].Age > c.view[victim].Age {
				victim = i
			}
		}
	}
	c.view[victim] = d
}

// indexOf returns the position of id's descriptor in ds, or -1.
func indexOf(ds []wire.PeerDescriptor, id wire.NodeID) int {
	for i := range ds {
		if ds[i].Node == id {
			return i
		}
	}
	return -1
}

func (c *Cyclon) addDescriptor(d wire.PeerDescriptor) {
	if indexOf(c.view, d.Node) >= 0 {
		return
	}
	c.view = append(c.view, d)
}
