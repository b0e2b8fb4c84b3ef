package membership

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// buildCyclonNetwork wires n Cyclon nodes into a simulated network with a
// ring bootstrap (each node initially knows its few successors).
func buildCyclonNetwork(t *testing.T, n int, cfg CyclonConfig, seed int64) (*simnet.Network, []*Cyclon) {
	t.Helper()
	net := simnet.New(simnet.Config{
		Seed:    seed,
		Latency: simnet.ConstantLatency(10 * time.Millisecond),
	})
	services := make([]*Cyclon, n)
	for i := 0; i < n; i++ {
		bootstrap := []wire.NodeID{
			wire.NodeID((i + 1) % n),
			wire.NodeID((i + 2) % n),
			wire.NodeID((i + 3) % n),
		}
		services[i] = NewCyclon(cfg, bootstrap)
		id := net.AddNode(services[i], simnet.NodeConfig{})
		if int(id) != i {
			t.Fatalf("node id %d, want %d", id, i)
		}
	}
	return net, services
}

func TestCyclonConvergesToWellMixedViews(t *testing.T) {
	const n = 60
	cfg := CyclonConfig{ViewSize: 12, ShuffleLen: 6, Period: 500 * time.Millisecond}
	net, services := buildCyclonNetwork(t, n, cfg, 1)
	net.Run(60 * time.Second)

	// Every view should be full and contain no self or duplicate entries.
	indegree := make([]int, n)
	for i, c := range services {
		view := c.ViewDescriptors()
		// A node with an in-flight shuffle has momentarily removed its
		// target, so the view may be one short of capacity.
		if len(view) < cfg.ViewSize-1 || len(view) > cfg.ViewSize {
			t.Fatalf("node %d view size %d, want %d or %d", i, len(view), cfg.ViewSize-1, cfg.ViewSize)
		}
		seen := map[wire.NodeID]bool{}
		for _, d := range view {
			if d.Node == wire.NodeID(i) {
				t.Fatalf("node %d has itself in its view", i)
			}
			if seen[d.Node] {
				t.Fatalf("node %d has duplicate descriptor for %d", i, d.Node)
			}
			seen[d.Node] = true
			indegree[d.Node]++
		}
	}
	// In-degree should be roughly balanced (random-graph-like), far from the
	// initial ring (where successors of low-index nodes dominate).
	lo, hi := indegree[0], indegree[0]
	for _, d := range indegree {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == 0 {
		t.Fatal("some node vanished from all views")
	}
	if hi > 5*cfg.ViewSize {
		t.Fatalf("in-degree too skewed: max %d for mean %d", hi, cfg.ViewSize)
	}
	if services[0].Shuffles == 0 {
		t.Fatal("no shuffles happened")
	}
}

func TestCyclonGraphConnectivity(t *testing.T) {
	const n = 60
	cfg := CyclonConfig{ViewSize: 10, ShuffleLen: 5, Period: 500 * time.Millisecond}
	net, services := buildCyclonNetwork(t, n, cfg, 2)
	net.Run(30 * time.Second)

	// BFS over the union of directed view edges from node 0.
	adj := make([][]wire.NodeID, n)
	for i, c := range services {
		for _, d := range c.ViewDescriptors() {
			adj[i] = append(adj[i], d.Node)
		}
	}
	visited := make([]bool, n)
	queue := []wire.NodeID{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !visited[next] {
				visited[next] = true
				count++
				queue = append(queue, next)
			}
		}
	}
	if count != n {
		t.Fatalf("view graph not connected: reached %d of %d", count, n)
	}
}

func TestCyclonEvictsDeadPeers(t *testing.T) {
	const n = 30
	cfg := CyclonConfig{ViewSize: 8, ShuffleLen: 4,
		Period: 500 * time.Millisecond, ReplyTimeout: time.Second}
	net, services := buildCyclonNetwork(t, n, cfg, 3)
	net.Run(20 * time.Second)

	// Kill a third of the nodes.
	for i := 0; i < n/3; i++ {
		net.Crash(wire.NodeID(i))
	}
	net.Run(net.Now() + 2*time.Minute)

	// Dead nodes should have (mostly) disappeared from live views: they can
	// no longer inject fresh descriptors, so aging + eviction removes them.
	deadRefs, totalRefs := 0, 0
	for i := n / 3; i < n; i++ {
		for _, d := range services[i].ViewDescriptors() {
			totalRefs++
			if int(d.Node) < n/3 {
				deadRefs++
			}
		}
	}
	if totalRefs == 0 {
		t.Fatal("live views are empty")
	}
	if frac := float64(deadRefs) / float64(totalRefs); frac > 0.10 {
		t.Fatalf("dead nodes still occupy %.0f%% of live view slots", frac*100)
	}
	evictions := 0
	for i := n / 3; i < n; i++ {
		evictions += services[i].Evictions
	}
	if evictions == 0 {
		t.Fatal("no shuffle-timeout evictions recorded")
	}
}

func TestCyclonAppendPeers(t *testing.T) {
	cfg := CyclonConfig{}
	c := NewCyclon(cfg, []wire.NodeID{1, 2, 3, 4, 5})
	rng := rand.New(rand.NewSource(4))
	sel := c.AppendPeers(nil, rng, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	seen := map[wire.NodeID]bool{}
	for _, id := range sel {
		if seen[id] {
			t.Fatal("duplicate peer")
		}
		seen[id] = true
	}
	if got := c.AppendPeers(nil, rng, 100); len(got) != 5 {
		t.Fatalf("oversized k returned %d, want 5", len(got))
	}
	if got := c.AppendPeers(nil, rng, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestCyclonBootstrapRespectsViewSize(t *testing.T) {
	cfg := CyclonConfig{ViewSize: 3}
	boot := []wire.NodeID{1, 2, 3, 4, 5, 6}
	c := NewCyclon(cfg, boot)
	if c.PeerCount() != 3 {
		t.Fatalf("bootstrap overfilled view: %d", c.PeerCount())
	}
}

// TestCyclonReceiveLeavesMessageAlone: a ShuffleReq built by shuffle has
// spare capacity behind its descriptors, and the sender still holds that
// array as its replacement candidates; the simulator hands the receiver the
// very same object. Merging must read it, never append to it.
func TestCyclonReceiveLeavesMessageAlone(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	c := NewCyclon(CyclonConfig{}, []wire.NodeID{1, 2, 3})
	net.AddNode(c, simnet.NodeConfig{})
	net.Run(time.Millisecond)

	sentinel := wire.PeerDescriptor{Node: 77, Age: 7}
	backing := []wire.PeerDescriptor{{Node: 4, Age: 1}, {Node: 5, Age: 2}, sentinel}
	c.Receive(9, &wire.ShuffleReq{Descriptors: backing[:2]})

	if backing[2] != sentinel {
		t.Fatalf("Receive wrote %+v into the message's spare capacity", backing[2])
	}
	// The sender is still admitted fresh, after the descriptors it sent.
	view := c.ViewDescriptors()
	want := []wire.PeerDescriptor{{Node: 4, Age: 1}, {Node: 5, Age: 2}, {Node: 9}}
	if len(view) != 6 || !slices.Equal(view[3:], want) {
		t.Fatalf("view %+v, want the three bootstrap peers then %+v", view, want)
	}
}

// clockRuntime is a one-node env.Runtime with a hand-cranked clock: sends are
// recorded, and timers fire in due order (arming order among equals) only as
// advance moves the clock over them.
type clockRuntime struct {
	now    time.Duration
	rng    *rand.Rand
	timers []clockTimer
	sent   []wire.NodeID
}

type clockTimer struct {
	due time.Duration
	fn  func()
}

func (r *clockRuntime) ID() wire.NodeID                     { return 0 }
func (r *clockRuntime) Now() time.Duration                  { return r.now }
func (r *clockRuntime) Rand() *rand.Rand                    { return r.rng }
func (r *clockRuntime) Send(to wire.NodeID, _ wire.Message) { r.sent = append(r.sent, to) }
func (r *clockRuntime) AfterFunc(d time.Duration, fn func()) {
	r.timers = append(r.timers, clockTimer{r.now + d, fn})
}

func (r *clockRuntime) advance(to time.Duration) {
	for {
		next := -1
		for i, tm := range r.timers {
			if tm.due <= to && (next < 0 || tm.due < r.timers[next].due) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		tm := r.timers[next]
		r.timers = slices.Delete(r.timers, next, next+1)
		r.now = tm.due
		tm.fn()
	}
	r.now = to
}

// TestCyclonReplyTimeout: the reply deadline cannot be canceled, so an
// answered shuffle's deadline still fires; it must evict only a shuffle that
// is pending and at least ReplyTimeout old. Node 0's view holds one peer, so
// every shuffle goes to peer 1; the ticker is dropped and shuffles are run by
// hand.
func TestCyclonReplyTimeout(t *testing.T) {
	const timeout = 2 * time.Second
	start := func() (*Cyclon, *clockRuntime) {
		c := NewCyclon(CyclonConfig{ReplyTimeout: timeout}, []wire.NodeID{1})
		rt := &clockRuntime{rng: rand.New(rand.NewSource(1))}
		c.Start(rt)
		rt.timers = nil
		return c, rt
	}
	expect := func(t *testing.T, c *Cyclon, at time.Duration, evictions int, pending wire.NodeID) {
		t.Helper()
		if c.Evictions != evictions || c.pendingTarget != pending {
			t.Fatalf("at %v: %d evictions, pending %d; want %d, pending %d", at, c.Evictions, c.pendingTarget, evictions, pending)
		}
	}
	t.Run("unanswered", func(t *testing.T) {
		c, rt := start()
		c.shuffle()
		rt.advance(timeout - 1)
		expect(t, c, rt.now, 0, 1)
		rt.advance(timeout)
		expect(t, c, rt.now, 1, wire.NodeNone)
	})
	t.Run("stale-deadline-spares-younger-shuffle", func(t *testing.T) {
		c, rt := start()
		c.shuffle() // A
		rt.advance(500 * time.Millisecond)
		c.Receive(1, &wire.ShuffleReply{})
		rt.advance(time.Second)
		c.shuffle() // B, inside A's window, to the same peer
		if !slices.Equal(rt.sent, []wire.NodeID{1, 1}) {
			t.Fatalf("shuffles went to %v, want peer 1 twice", rt.sent)
		}
		rt.advance(timeout) // A's deadline
		expect(t, c, rt.now, 0, 1)
		rt.advance(time.Second + timeout - 1)
		expect(t, c, rt.now, 0, 1)
		rt.advance(time.Second + timeout) // B's deadline
		expect(t, c, rt.now, 1, wire.NodeNone)
	})
	t.Run("answered", func(t *testing.T) {
		c, rt := start()
		c.shuffle()
		rt.advance(timeout - 1)
		c.Receive(1, &wire.ShuffleReply{})
		rt.advance(time.Minute)
		expect(t, c, rt.now, 0, wire.NodeNone)
	})
}

// TestCyclonShuffleRoundAllocations pins what a steady shuffle/reply round
// allocates on the simulator: nothing. Both sides send from one message of
// each kind, the shipped descriptors live in a buffer of their own, the
// simulator's copies come from its message pool, and the reply deadline is a
// bound-once callback on a pooled timer slot, with no closure and no handle.
func TestCyclonShuffleRoundAllocations(t *testing.T) {
	cfg := CyclonConfig{Period: time.Second}
	net := simnet.New(simnet.Config{Seed: 5, Latency: simnet.ConstantLatency(10 * time.Millisecond)})
	a, b := NewCyclon(cfg, []wire.NodeID{1}), NewCyclon(cfg, []wire.NodeID{0})
	net.AddNode(a, simnet.NodeConfig{})
	net.AddNode(b, simnet.NodeConfig{})
	net.Run(10 * time.Second) // warm the event pool
	const periods = 100
	before := a.Shuffles + b.Shuffles
	allocs := testing.AllocsPerRun(periods, func() { net.Run(net.Now() + cfg.Period) })
	rounds := float64(a.Shuffles+b.Shuffles-before) / (periods + 1) // AllocsPerRun runs once more to warm up
	if rounds != 2 {
		t.Fatalf("%v shuffles per period, want one per node", rounds)
	}
	if perRound := allocs / rounds; perRound != 0 {
		t.Fatalf("a shuffle/reply round allocates %v objects, want 0", perRound)
	}
}
