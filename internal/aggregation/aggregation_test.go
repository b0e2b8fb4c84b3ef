package aggregation

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/membership"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// buildEstimators wires n nodes with the given capabilities (kbps) into a
// simulated network running only the aggregation protocol.
func buildEstimators(t *testing.T, caps []uint32, cfgTmpl Config, seed int64) (*simnet.Network, []*Estimator) {
	t.Helper()
	net := simnet.New(simnet.Config{
		Seed:    seed,
		Latency: simnet.ConstantLatency(20 * time.Millisecond),
	})
	dir := membership.NewDirectory(len(caps))
	estimators := make([]*Estimator, len(caps))
	for i, c := range caps {
		cfg := cfgTmpl
		cfg.SelfCapKbps = c
		cfg.Sampler = dir.ViewFor(wire.NodeID(i))
		estimators[i] = NewEstimator(cfg)
		net.AddNode(estimators[i], simnet.NodeConfig{})
	}
	return net, estimators
}

func paperMS691Caps(n int) []uint32 {
	// ms-691: 5% at 3 Mbps, 10% at 1 Mbps, 85% at 512 kbps (Table 1).
	caps := make([]uint32, n)
	for i := range caps {
		switch {
		case i < n*5/100:
			caps[i] = 3000
		case i < n*15/100:
			caps[i] = 1000
		default:
			caps[i] = 512
		}
	}
	return caps
}

func trueMean(caps []uint32) float64 {
	var sum uint64
	for _, c := range caps {
		sum += uint64(c)
	}
	return float64(sum) / float64(len(caps))
}

func TestEstimatorConvergesToTrueMean(t *testing.T) {
	caps := paperMS691Caps(100)
	net, estimators := buildEstimators(t, caps, Config{}, 1)
	net.Run(20 * time.Second)
	want := trueMean(caps)
	for i, e := range estimators {
		got := e.EstimateKbps()
		if math.Abs(got-want)/want > 0.10 {
			t.Fatalf("node %d estimate %.1f, true mean %.1f (>10%% off)", i, got, want)
		}
	}
}

func TestEstimatorInitialEstimateIsOwnCapability(t *testing.T) {
	dir := membership.NewDirectory(2)
	e := NewEstimator(Config{SelfCapKbps: 768, Sampler: dir.ViewFor(0)})
	if got := e.EstimateKbps(); got != 768 {
		t.Fatalf("initial estimate %.1f, want own capability 768", got)
	}
	if got := e.RelativeCapability(); got != 1 {
		t.Fatalf("initial relative capability %.2f, want 1", got)
	}
}

func TestRelativeCapabilityOrdering(t *testing.T) {
	caps := paperMS691Caps(100)
	net, estimators := buildEstimators(t, caps, Config{}, 2)
	net.Run(20 * time.Second)
	// Rich nodes must end with relative capability > 1, poor nodes < 1.
	for i, e := range estimators {
		rel := e.RelativeCapability()
		switch caps[i] {
		case 3000:
			if rel < 2 {
				t.Fatalf("3 Mbps node %d has relative capability %.2f, want > 2", i, rel)
			}
		case 512:
			if rel > 1 {
				t.Fatalf("512 kbps node %d has relative capability %.2f, want < 1", i, rel)
			}
		}
	}
}

func TestEstimatorMessageBudget(t *testing.T) {
	// With default parameters (fanout 1, 10 entries, 200 ms) the paper
	// reports ~1 KB/s. Check the per-node send rate over a simulated minute.
	caps := paperMS691Caps(50)
	net, _ := buildEstimators(t, caps, Config{}, 3)
	net.Run(60 * time.Second)
	st := net.NodeStats(0)
	bytesPerSec := float64(st.SentBytes) / 60
	if bytesPerSec > 1100 {
		t.Fatalf("aggregation costs %.0f B/s, paper budget ~1 KB/s", bytesPerSec)
	}
	if bytesPerSec < 100 {
		t.Fatalf("aggregation suspiciously cheap (%.0f B/s); protocol not running?", bytesPerSec)
	}
}

func TestEstimatorPrunesDeadNodes(t *testing.T) {
	// Crash the single 3 Mbps-class rich minority; estimates must drift
	// down to the new mean once their entries age out.
	caps := []uint32{3000, 3000, 512, 512, 512, 512, 512, 512, 512, 512}
	net, estimators := buildEstimators(t, caps, Config{EntryTTL: 5 * time.Second}, 4)
	net.Run(10 * time.Second)
	net.Crash(0)
	net.Crash(1)
	net.Run(net.Now() + 30*time.Second)
	want := 512.0
	for i := 2; i < len(estimators); i++ {
		got := estimators[i].EstimateKbps()
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("node %d estimate %.1f after crashes, want ~%.0f", i, got, want)
		}
	}
}

func TestEstimatorIgnoresStaleEntriesForSelf(t *testing.T) {
	dir := membership.NewDirectory(3)
	e := NewEstimator(Config{SelfCapKbps: 1000, Sampler: dir.ViewFor(0)})
	net := simnet.New(simnet.Config{Seed: 5})
	net.AddNode(e, simnet.NodeConfig{})
	net.Run(time.Millisecond)
	// A malicious/stale entry about ourselves must not override local truth.
	e.Receive(1, &wire.Aggregate{Entries: []wire.CapEntry{{Node: 0, CapKbps: 1, AgeMs: 0}}})
	if e.EstimateKbps() != 1000 {
		t.Fatalf("self entry was overridden: estimate %.1f", e.EstimateKbps())
	}
}

func TestEstimatorMergesByFreshness(t *testing.T) {
	dir := membership.NewDirectory(3)
	e := NewEstimator(Config{SelfCapKbps: 1000, Sampler: dir.ViewFor(0)})
	net := simnet.New(simnet.Config{Seed: 6})
	net.AddNode(e, simnet.NodeConfig{})
	net.Run(time.Second)
	// Entry about node 1, 100ms old.
	e.Receive(1, &wire.Aggregate{Entries: []wire.CapEntry{{Node: 1, CapKbps: 500, AgeMs: 100}}})
	// Staler entry (5s old) about the same node must not win.
	e.Receive(2, &wire.Aggregate{Entries: []wire.CapEntry{{Node: 1, CapKbps: 9999, AgeMs: 5000}}})
	if got := e.EstimateKbps(); got != (1000+500)/2 {
		t.Fatalf("estimate %.1f, want 750 (stale entry must lose)", got)
	}
	// Fresher entry must win.
	e.Receive(2, &wire.Aggregate{Entries: []wire.CapEntry{{Node: 1, CapKbps: 700, AgeMs: 0}}})
	if got := e.EstimateKbps(); got != (1000+700)/2 {
		t.Fatalf("estimate %.1f, want 850 (fresh entry must win)", got)
	}
}

func TestEstimatorKnownNodesGrows(t *testing.T) {
	caps := paperMS691Caps(40)
	net, estimators := buildEstimators(t, caps, Config{}, 7)
	net.Run(15 * time.Second)
	// With 10 entries/msg spreading epidemically, nodes should know a large
	// fraction of the system within seconds.
	for i, e := range estimators {
		if e.KnownNodes() < 20 {
			t.Fatalf("node %d knows only %d nodes after 15s", i, e.KnownNodes())
		}
	}
}

func TestEstimatorTrackLimitConvergesAndBounds(t *testing.T) {
	// Capabilities shuffled by seeded rng so the tracked id-prefix is an
	// unbiased sample of the distribution — the same property scenario runs
	// have, where caps are rng-assigned rather than id-correlated.
	caps := paperMS691Caps(120)
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
	const limit = 40
	net, estimators := buildEstimators(t, caps, Config{TrackLimit: limit}, 3)
	net.Run(20 * time.Second)

	// The limited estimate converges to the tracked prefix's mean, which for
	// a shuffled assignment tracks the system mean closely.
	want := trueMean(caps[:limit])
	for i, e := range estimators {
		if e.KnownNodes() > limit {
			t.Fatalf("node %d tracks %d nodes, limit %d", i, e.KnownNodes(), limit)
		}
		got := e.EstimateKbps()
		if math.Abs(got-want)/want > 0.10 {
			t.Fatalf("node %d estimate %.1f, tracked-prefix mean %.1f (>10%% off)", i, got, want)
		}
	}
	// A node outside the limit still knows its own capability exactly and
	// computes a sensible relative capability from the sampled estimate.
	out := estimators[limit+5]
	if rel := out.RelativeCapability(); rel <= 0 {
		t.Fatalf("untracked node relative capability %.2f", rel)
	}
}

func TestAveragerConvergesToMeanAndSize(t *testing.T) {
	const n = 64
	net := simnet.New(simnet.Config{Seed: 8, Latency: simnet.ConstantLatency(10 * time.Millisecond)})
	dir := membership.NewDirectory(n)
	avgs := make([]*Averager, n)
	for i := 0; i < n; i++ {
		v := 0.0
		if i == 0 {
			v = 1.0 // size estimation: one node holds 1, the rest 0
		}
		avgs[i] = NewAverager(AveragerConfig{InitialValue: v, Sampler: dir.ViewFor(wire.NodeID(i))})
		net.AddNode(avgs[i], simnet.NodeConfig{})
	}
	net.Run(30 * time.Second)
	for i, a := range avgs {
		size := a.SizeEstimate()
		if size < n*7/10 || size > n*13/10 {
			t.Fatalf("node %d size estimate %.1f, want ~%d (+-30%%)", i, size, n)
		}
	}
}

func TestAveragerMassConservation(t *testing.T) {
	// With no message loss, the sum of values is invariant under completed
	// push-pull exchanges (each moves value symmetrically). Allow a tiny
	// slack for exchanges in flight at the instant we sample.
	const n = 32
	net := simnet.New(simnet.Config{Seed: 9, Latency: simnet.ConstantLatency(5 * time.Millisecond)})
	dir := membership.NewDirectory(n)
	avgs := make([]*Averager, n)
	for i := 0; i < n; i++ {
		avgs[i] = NewAverager(AveragerConfig{InitialValue: float64(i), Sampler: dir.ViewFor(wire.NodeID(i))})
		net.AddNode(avgs[i], simnet.NodeConfig{})
	}
	net.Run(20 * time.Second)
	var sum float64
	for _, a := range avgs {
		sum += a.Value()
	}
	want := float64(n*(n-1)) / 2
	if math.Abs(sum-want)/want > 0.10 {
		t.Fatalf("mass drifted: sum %.1f, want ~%.1f", sum, want)
	}
	// And values must have converged toward the mean.
	mean := want / n
	for i, a := range avgs {
		if math.Abs(a.Value()-mean)/mean > 0.25 {
			t.Fatalf("node %d value %.2f far from mean %.2f", i, a.Value(), mean)
		}
	}
}

func TestNewEstimatorValidation(t *testing.T) {
	dir := membership.NewDirectory(2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil sampler", func() { NewEstimator(Config{SelfCapKbps: 1}) })
	mustPanic("zero capability", func() { NewEstimator(Config{Sampler: dir.ViewFor(0)}) })
	mustPanic("nil averager sampler", func() { NewAverager(AveragerConfig{}) })
	ok := Config{SelfCapKbps: 1, Sampler: dir.ViewFor(0)}
	for name, mutate := range map[string]func(*Config){
		"negative period":         func(c *Config) { c.Period = -time.Second },
		"negative entry TTL":      func(c *Config) { c.EntryTTL = -time.Second },
		"TTL too long in periods": func(c *Config) { c.Period, c.EntryTTL = time.Microsecond, time.Hour },
		"negative FreshestK":      func(c *Config) { c.FreshestK = -1 },
		"FreshestK past the wire": func(c *Config) { c.FreshestK = MaxFreshestK + 1 },
	} {
		cfg := ok
		mutate(&cfg)
		mustPanic(name, func() { NewEstimator(cfg) })
	}
}

// TestConfigValidateRingEdge: the ring must fit maxBuckets, the most an
// int16 bucket head can name, so at the default 15 s EntryTTL the shortest
// Period is 15 s / (maxBuckets-2), 457.792 µs. Validate draws that edge, and
// NewEstimator panics with Validate's error.
func TestConfigValidateRingEdge(t *testing.T) {
	const edge = 457792 * time.Nanosecond
	if err := (Config{Period: edge}).Validate(); err != nil {
		t.Errorf("Period %v rejected: %v", edge, err)
	}
	short := Config{Period: edge - time.Nanosecond}
	err := short.Validate()
	if err == nil {
		t.Fatalf("Period %v accepted, which needs a ring of more than %d buckets", short.Period, maxBuckets)
	}
	defer func() {
		if got := recover(); got != err.Error() {
			t.Errorf("NewEstimator panicked with %v, want Validate's %q", got, err)
		}
	}()
	short.SelfCapKbps, short.Sampler = 1, fixedSampler{}
	NewEstimator(short)
}

// TestUntrackedIDsNeverGrowTable: with no TrackLimit, ids at and past
// maxTrackedNodeID are refused like negative ones — the table does not grow
// for them and receiving them allocates nothing.
func TestUntrackedIDsNeverGrowTable(t *testing.T) {
	rt := &stubRuntime{id: 3, rng: rand.New(rand.NewSource(1))}
	e := NewEstimator(Config{SelfCapKbps: 700, Sampler: fixedSampler{}})
	e.Start(rt)
	before := len(e.slots)
	msg := &wire.Aggregate{Entries: []wire.CapEntry{
		{Node: maxTrackedNodeID, CapKbps: 1}, {Node: 1 << 20, CapKbps: 2},
		{Node: math.MaxInt32, CapKbps: 3}, {Node: -1, CapKbps: 4},
	}}
	if n := mallocs(func() { e.Receive(1, msg) }); n != 0 {
		t.Errorf("receiving untracked ids allocated %d times, want 0", n)
	}
	if len(e.slots) != before || e.KnownNodes() != 1 {
		t.Errorf("table of %d ids and %d entries after untracked ids, want %d and 1 (self)", len(e.slots), e.KnownNodes(), before)
	}
}

// TestSelfPastCeilingEstimates: a node whose own id is past maxTrackedNodeID,
// with no TrackLimit, never files itself — the id would not fit the int16
// links — yet starts, ticks and estimates from the tracked ids.
func TestSelfPastCeilingEstimates(t *testing.T) {
	rt := &stubRuntime{id: 40000, rng: rand.New(rand.NewSource(1))}
	e := NewEstimator(Config{SelfCapKbps: 700, Sampler: fixedSampler{}})
	e.Start(rt)
	e.Receive(1, &wire.Aggregate{Entries: []wire.CapEntry{
		{Node: 1, CapKbps: 400}, {Node: maxTrackedNodeID - 1, CapKbps: 800}, {Node: 40000, CapKbps: 9},
	}})
	rt.fire()
	e.SetSelfCapKbps(900)
	rt.fire()
	if err := ringError(e); err != nil {
		t.Fatal(err)
	}
	if got := e.KnownNodes(); got != 2 {
		t.Errorf("KnownNodes %d, want the 2 tracked peers", got)
	}
	if got := e.EstimateKbps(); got != 600 {
		t.Errorf("EstimateKbps %v, want the tracked peers' mean 600", got)
	}
	if got := e.RelativeCapability(); got != 1.5 {
		t.Errorf("RelativeCapability %v, want 900/600", got)
	}
	if len(rt.sent) != 1 || len(rt.sent[0].Entries) != 2 {
		t.Fatalf("tick sent %v, want one message of the 2 tracked entries", rt.sent)
	}
}

// TestRingAtInt16Edge: a lazily grown table reaching the largest valid id,
// in a ring of exactly maxBuckets buckets, keeps every link consistent while
// entries are filed in the last bucket (whose head's back link is -32768),
// rewritten, carried by the turning ring and expired.
func TestRingAtInt16Edge(t *testing.T) {
	rt := &stubRuntime{rng: rand.New(rand.NewSource(1))}
	e := NewEstimator(Config{
		SelfCapKbps: 700, Sampler: fixedSampler{},
		Period: time.Millisecond, EntryTTL: (maxBuckets - 2) * time.Millisecond,
	})
	if len(e.buckets) != maxBuckets {
		t.Fatalf("ring of %d buckets, want %d", len(e.buckets), maxBuckets)
	}
	e.Start(rt)
	check := func(what string) {
		t.Helper()
		if err := ringError(e); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	edge := func(id wire.NodeID, capKbps, ageMs uint32) *wire.Aggregate {
		return &wire.Aggregate{Entries: []wire.CapEntry{{Node: id, CapKbps: capKbps, AgeMs: ageMs}}}
	}
	e.Receive(1, edge(maxTrackedNodeID-1, 10, 0))
	e.Receive(1, edge(maxTrackedNodeID-2, 20, 0))
	check("edge ids filed")
	if len(e.slots) != maxTrackedNodeID {
		t.Fatalf("table of %d ids, want %d", len(e.slots), maxTrackedNodeID)
	}
	if b := e.buckets[maxBuckets-1]; b != maxTrackedNodeID-2 || e.slots[b].prev != math.MinInt16 {
		t.Fatalf("last bucket heads id %d with back link %d, want %d and %d", b, e.slots[b].prev, maxTrackedNodeID-2, math.MinInt16)
	}
	rt.now += 5 * time.Millisecond
	e.Receive(1, edge(maxTrackedNodeID-1, 11, 0))
	e.Receive(1, edge(1, 30, 2))
	check("edge id rewritten")
	rt.fire()
	check("tick")
	rt.now += e.cfg.EntryTTL - 3*time.Millisecond
	rt.fire()
	check("ring turned past the first entries")
	rt.now += 10 * time.Millisecond
	rt.fire()
	check("first entries expired")
	if got := e.KnownNodes(); got != 1 {
		t.Errorf("KnownNodes %d after every peer expired, want 1 (self)", got)
	}
}

// TestEstimatorFootprint pins what the index costs per entry and per call:
// a million-node run holds hundreds of millions of entries and merges
// billions of messages.
func TestEstimatorFootprint(t *testing.T) {
	// A tracked id costs one slot: asOf, the value and two int16 links.
	if size := unsafe.Sizeof(capSlot{}); size != 16 {
		t.Errorf("capSlot is %d bytes, want 16", size)
	}
	// The freshest-k set costs a node 16·FreshestK bytes, a slice header and
	// a flag.
	if size := unsafe.Sizeof(freshRec{}); size > 16 {
		t.Errorf("freshRec is %d bytes, want <= 16", size)
	}
	const fanout = 2
	rt := &stubRuntime{rng: rand.New(rand.NewSource(1))}
	e := NewEstimator(Config{SelfCapKbps: 700, Sampler: fixedSampler{}, Fanout: fanout})
	e.Start(rt)
	msg := &wire.Aggregate{Entries: make([]wire.CapEntry, 10)}
	round := 0
	receive := func() {
		round++
		for i := range msg.Entries {
			id := 1 + (round*7+i*13)%200
			msg.Entries[i] = wire.CapEntry{Node: wire.NodeID(id), CapKbps: uint32(id), AgeMs: uint32(i * 50)}
		}
		e.Receive(1, msg)
	}
	for i := 0; i < 300; i++ { // warm-up: table, scratch and ring all at size
		receive()
		rt.fire()
	}
	if n := testing.AllocsPerRun(100, func() { rt.now += 20 * time.Millisecond; receive() }); n != 0 {
		t.Errorf("Receive of a 10-entry message allocates %v times, want 0", n)
	}
	// Every tick sends its one Aggregate, entries refilled in place.
	if n := testing.AllocsPerRun(100, func() { receive(); rt.fire() }); n != 0 {
		t.Errorf("a tick allocates %v times, want 0", n)
	}
	if got := cap(e.top); got != e.cfg.FreshestK {
		t.Errorf("the freshest-k set has room for %d records, want FreshestK (%d)", got, e.cfg.FreshestK)
	}
}

// TestPresizedTableFirstReceiveAllocatesNothing: with a TrackLimit the table
// is allocated once, by NewEstimator, at exactly the limit, so even the first
// Receive of every id below it allocates nothing, with no warm-up.
func TestPresizedTableFirstReceiveAllocatesNothing(t *testing.T) {
	const limit = 256
	rt := &stubRuntime{id: 3, rng: rand.New(rand.NewSource(1))}
	e := NewEstimator(Config{SelfCapKbps: 700, Sampler: fixedSampler{}, TrackLimit: limit})
	if len(e.slots) != limit || cap(e.slots) != limit {
		t.Fatalf("table of %d/%d slots (len/cap), want %d", len(e.slots), cap(e.slots), limit)
	}
	e.Start(rt)
	msg := &wire.Aggregate{Entries: make([]wire.CapEntry, 8)}
	// Ids arrive scattered, the last id first: a stride of 31, coprime to
	// the limit, visits every id once.
	if n := mallocs(func() {
		for i := 0; i < limit; i += len(msg.Entries) {
			for j := range msg.Entries {
				id := wire.NodeID(limit - 1 - (i+j)*31%limit)
				msg.Entries[j] = wire.CapEntry{Node: id, CapKbps: 100 + uint32(id), AgeMs: uint32(j)}
			}
			e.Receive(1, msg)
		}
	}); n != 0 {
		t.Errorf("the first Receive of every id below TrackLimit allocated %d times, want 0", n)
	}
	if got := e.KnownNodes(); got != limit {
		t.Errorf("KnownNodes %d after every id arrived, want %d", got, limit)
	}
}

// mallocs counts the heap allocations fn makes. Like testing.AllocsPerRun it
// runs on one P, where ReadMemStats' stop-the-world allocates nothing of its
// own; unlike it, it does not call fn once first to warm up.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
