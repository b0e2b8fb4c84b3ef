package netem

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

func judgeN(t *testing.T, m Model, n int, from, to wire.NodeID, now time.Duration, seed int64) (drops, delayed int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v := m.Judge(from, to, 1000, now, rng)
		if v.Drop {
			drops++
		}
		if v.Delay > 0 {
			delayed++
		}
	}
	return drops, delayed
}

func TestBernoulliRates(t *testing.T) {
	if d, _ := judgeN(t, Bernoulli{P: 0}, 1000, 1, 2, 0, 1); d != 0 {
		t.Fatalf("p=0 dropped %d", d)
	}
	d, _ := judgeN(t, Bernoulli{P: 0.3}, 10000, 1, 2, 0, 1)
	if d < 2500 || d > 3500 {
		t.Fatalf("p=0.3 dropped %d of 10000", d)
	}
	// P=0 must not consume rng draws: the zero-config stream is sacred.
	rng := rand.New(rand.NewSource(7))
	want := rng.Float64()
	rng = rand.New(rand.NewSource(7))
	Bernoulli{}.Judge(1, 2, 0, 0, rng)
	if got := rng.Float64(); got != want {
		t.Fatal("Bernoulli{0} consumed an rng draw")
	}
}

func TestGilbertElliottBurstsAndDeterminism(t *testing.T) {
	p := GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossGood: 0, LossBad: 1}
	// Loss arrives in runs: count transitions between loss/no-loss outcomes;
	// independent loss at the same rate would alternate far more often.
	outcomes := make([]bool, 0, 20000)
	rng := rand.New(rand.NewSource(3))
	ge := NewGilbertElliott(p)
	for i := 0; i < 20000; i++ {
		outcomes = append(outcomes, ge.Judge(1, 2, 0, 0, rng).Drop)
	}
	losses, switches := 0, 0
	for i, o := range outcomes {
		if o {
			losses++
		}
		if i > 0 && o != outcomes[i-1] {
			switches++
		}
	}
	if losses == 0 {
		t.Fatal("no losses at all")
	}
	// Steady-state bad share is 0.05/0.25 = 20%; mean burst is 5 datagrams,
	// so the number of runs is far below 2*losses (independent-loss regime).
	if switches >= losses {
		t.Fatalf("loss not bursty: %d losses, %d switches", losses, switches)
	}
	// Same seed, same sender: identical verdict streams, and the receiver
	// plays no part in the chain (per-sender uplink semantics) — so memory
	// stays O(senders) even when gossip targets churn constantly.
	geA, geB := NewGilbertElliott(p), NewGilbertElliott(p)
	rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a := geA.Judge(1, wire.NodeID(2+i%50), 0, 0, rngA)
		b := geB.Judge(1, wire.NodeID(2+(i*13)%50), 0, 0, rngB)
		if a != b {
			t.Fatalf("same seed, same sender: verdicts diverge at %d", i)
		}
	}
	if len(geA.bad) != 2 {
		t.Fatalf("chain state grew to %d entries for one sender, want O(senders)", len(geA.bad))
	}
	// A forged out-of-range sender id must not grow the dense slice.
	geA.Judge(wire.NodeID(maxTrackedSender), 1, 0, 0, rngA)
	geA.Judge(-5, 1, 0, 0, rngA)
	if len(geA.bad) != 2 {
		t.Fatalf("hostile sender id grew the chain slice to %d entries", len(geA.bad))
	}
}

func TestPartitionsSplitAndHeal(t *testing.T) {
	p := NewPartitions(Partition{
		From:   10 * time.Second,
		Until:  20 * time.Second,
		Groups: [][]wire.NodeID{{3, 4}},
	})
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		from, to wire.NodeID
		at       time.Duration
		drop     bool
	}{
		{1, 3, 5 * time.Second, false},  // before the split
		{1, 3, 10 * time.Second, true},  // across the split
		{3, 1, 15 * time.Second, true},  // both directions
		{3, 4, 15 * time.Second, false}, // inside the listed group
		{1, 2, 15 * time.Second, false}, // inside the implicit group
		{1, 3, 20 * time.Second, false}, // healed (Until exclusive)
	}
	for _, c := range cases {
		if got := p.Judge(c.from, c.to, 0, c.at, rng).Drop; got != c.drop {
			t.Errorf("%d->%d at %v: drop=%v, want %v", c.from, c.to, c.at, got, c.drop)
		}
	}
}

func TestLatencySpikesRamp(t *testing.T) {
	l := NewLatencySpikes(Spike{
		At: 10 * time.Second, Duration: 10 * time.Second,
		Extra: 400 * time.Millisecond, Ramp: 2 * time.Second,
	})
	rng := rand.New(rand.NewSource(1))
	at := func(d time.Duration) time.Duration { return l.Judge(1, 2, 0, d, rng).Delay }
	if v := at(9 * time.Second); v != 0 {
		t.Fatalf("before spike: %v", v)
	}
	if v := at(11 * time.Second); v != 200*time.Millisecond {
		t.Fatalf("mid ramp-in: %v, want 200ms", v)
	}
	if v := at(15 * time.Second); v != 400*time.Millisecond {
		t.Fatalf("plateau: %v, want 400ms", v)
	}
	if v := at(19 * time.Second); v != 200*time.Millisecond {
		t.Fatalf("mid ramp-out: %v, want 200ms", v)
	}
	if v := at(20 * time.Second); v != 0 {
		t.Fatalf("after spike: %v", v)
	}
}

func TestDirectionalScopes(t *testing.T) {
	inner := FixedDelay(time.Millisecond)
	d := Directional{Inner: inner, To: NewNodeSet(5)}
	rng := rand.New(rand.NewSource(1))
	if v := d.Judge(1, 5, 0, 0, rng); v.Delay != time.Millisecond {
		t.Fatalf("to degraded node: %+v", v)
	}
	if v := d.Judge(5, 1, 0, 0, rng); v.Delay != 0 {
		t.Fatalf("from degraded node must be untouched: %+v", v)
	}
	tx := Directional{Inner: inner, From: NewNodeSet(5)}
	if v := tx.Judge(5, 1, 0, 0, rng); v.Delay != time.Millisecond {
		t.Fatalf("tx direction: %+v", v)
	}
	// Out-of-scope judging must not consume the inner model's rng draws.
	loss := Directional{Inner: Bernoulli{P: 0.5}, To: NewNodeSet(5)}
	r1 := rand.New(rand.NewSource(4))
	want := r1.Float64()
	r2 := rand.New(rand.NewSource(4))
	loss.Judge(1, 2, 0, 0, r2)
	if got := r2.Float64(); got != want {
		t.Fatal("out-of-scope Directional consumed rng draws")
	}
}

func TestEngineCountersAndShortCircuit(t *testing.T) {
	e := NewEngine().
		Add("drop-all", Bernoulli{P: 0.999999999}).
		Add("delay", FixedDelay(time.Millisecond))
	rng := rand.New(rand.NewSource(1))
	v := e.Judge(1, 2, 100, 0, rng)
	if !v.Drop || v.Delay != 0 {
		t.Fatalf("verdict %+v, want pure drop", v)
	}
	st := e.Stats()
	if st[0].Drops != 1 || st[0].Judged != 1 {
		t.Fatalf("first model stats %+v", st[0])
	}
	if st[1].Judged != 0 {
		t.Fatalf("second model consulted after a drop: %+v", st[1])
	}

	e2 := NewEngine().
		Add("a", FixedDelay(time.Millisecond)).
		Add("b", FixedDelay(2*time.Millisecond))
	v = e2.Judge(1, 2, 100, 0, rng)
	if v.Drop || v.Delay != 3*time.Millisecond {
		t.Fatalf("delays must add: %+v", v)
	}
	st = e2.Stats()
	if st[0].Delayed != 1 || st[1].DelaySum != 2*time.Millisecond {
		t.Fatalf("delay counters wrong: %+v", st)
	}

	// A delay verdict followed by a drop must not be counted as a delayed
	// delivery: the datagram never flew, and the per-model counters must
	// agree with the substrate's delivered-with-delay accounting.
	e3 := NewEngine().
		Add("delay", FixedDelay(time.Millisecond)).
		Add("drop-all", Bernoulli{P: 0.999999999})
	if v := e3.Judge(1, 2, 100, 0, rng); !v.Drop {
		t.Fatalf("verdict %+v, want drop", v)
	}
	st = e3.Stats()
	if st[0].Delayed != 0 || st[0].DelaySum != 0 {
		t.Fatalf("dropped datagram credited with delay: %+v", st[0])
	}
	if st[1].Drops != 1 {
		t.Fatalf("drop not counted: %+v", st[1])
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Bernoulli: 1.5},
		{GE: &GEParams{PGoodBad: -1}},
		{Partitions: []PartitionSpec{{From: 5 * time.Second, Until: 2 * time.Second, SplitFractions: []float64{0.5}}}},
		{Partitions: []PartitionSpec{{From: 1, Until: 2}}}, // neither Groups nor fractions
		{Partitions: []PartitionSpec{{From: 1, Until: 2, SplitFractions: []float64{0.7, 0.7}}}},
		{Spikes: []Spike{{At: time.Second, Duration: 0, Extra: time.Millisecond}}},
		{Asym: &AsymSpec{Fraction: 0.2}},                                                                                 // no effect
		{Asym: &AsymSpec{RxLoss: 0.1}},                                                                                   // no nodes
		{CapTraces: []CapTraceSpec{{Fraction: 0.2}}},                                                                     // no steps
		{CapTraces: []CapTraceSpec{{Fraction: 0.2, Steps: []CapStep{{}}}}},                                               // zero factor
		{CapTraces: []CapTraceSpec{{Nodes: []wire.NodeID{1}, Steps: []CapStep{{At: 2, Factor: 1}, {At: 1, Factor: 1}}}}}, // unsorted
		{Partitions: []PartitionSpec{{From: 1, Until: 2, Groups: [][]wire.NodeID{{-1}}}}},                                // negative id
		{Partitions: []PartitionSpec{{From: 1, Until: 2, Groups: [][]wire.NodeID{{1 << 30}}}}},                           // absurd id (would size a dense slice)
		{Asym: &AsymSpec{Nodes: []wire.NodeID{1 << 30}, RxLoss: 0.1}},                                                    // absurd id
		{CapTraces: []CapTraceSpec{{Nodes: []wire.NodeID{-2}, Steps: []CapStep{{At: 1, Factor: 1}}}}},                    // negative id
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	for _, name := range ProfileNames() {
		p, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("stock profile %s invalid: %v", name, err)
		}
	}
	if _, err := Profile("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// mustBuild builds cfg over the dense pool of n ids without a topology.
func mustBuild(t testing.TB, cfg Config, n int, seed int64, baseLoss float64) *Engine {
	t.Helper()
	e, err := cfg.Build(n, seed, baseLoss, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildDeterministicMaterialization(t *testing.T) {
	cfg := Config{
		Partitions: []PartitionSpec{{From: time.Second, Until: 2 * time.Second, SplitFractions: []float64{0.3}}},
		Asym:       &AsymSpec{Fraction: 0.25, RxLoss: 0.1},
		CapTraces:  []CapTraceSpec{{Fraction: 0.4, Steps: []CapStep{{At: time.Second, Factor: 0.5}}}},
	}
	a := mustBuild(t, cfg, 100, 42, 0.001)
	b := mustBuild(t, cfg, 100, 42, 0.001)
	// Same (config, n, seed): identical node selections...
	ta, tb := a.CapTraces(), b.CapTraces()
	if len(ta) != 1 || len(tb) != 1 {
		t.Fatalf("cap traces: %d / %d", len(ta), len(tb))
	}
	if len(ta[0].Nodes) != 40 {
		t.Fatalf("picked %d nodes, want 40", len(ta[0].Nodes))
	}
	for i := range ta[0].Nodes {
		if ta[0].Nodes[i] != tb[0].Nodes[i] {
			t.Fatal("materialization not deterministic")
		}
		if ta[0].Nodes[i] == 0 {
			t.Fatal("fraction-based selection picked node 0 (the source)")
		}
	}
	// ...and identical verdict streams.
	rngA, rngB := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		from, to := wire.NodeID(i%100), wire.NodeID((i*7)%100)
		va := a.Judge(from, to, 1000, time.Duration(i)*time.Millisecond, rngA)
		vb := b.Judge(from, to, 1000, time.Duration(i)*time.Millisecond, rngB)
		if va != vb {
			t.Fatalf("verdicts diverge at %d: %+v vs %+v", i, va, vb)
		}
	}
	// Tiny deployments must not round fraction-based selections to nothing:
	// every stock profile has to materialize a real effect even at n=2.
	tiny := Config{
		Partitions: []PartitionSpec{{From: time.Second, Until: 2 * time.Second, SplitFractions: []float64{0.25}}},
		CapTraces:  []CapTraceSpec{{Fraction: 0.3, Steps: []CapStep{{At: time.Second, Factor: 0.5}}}},
	}
	te := mustBuild(t, tiny, 2, 1, 0)
	if got := len(te.CapTraces()[0].Nodes); got != 1 {
		t.Fatalf("fraction 0.3 of a 1-node pool picked %d nodes, want 1", got)
	}
	rngT := rand.New(rand.NewSource(1))
	if v := te.Judge(0, 1, 100, 1500*time.Millisecond, rngT); !v.Drop {
		t.Fatal("25% split of a 2-node system materialized no partition")
	}

	// A different seed picks different nodes (or the rng is not wired in).
	c := mustBuild(t, cfg, 100, 43, 0.001)
	same := true
	for i, id := range c.CapTraces()[0].Nodes {
		if ta[0].Nodes[i] != id {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds picked identical node sets")
	}
}

// TestInForce covers the step-in-force lookup both substrates read a
// node's capability through: node 2 walks a plain trace, a silent one and
// a second plain one whose 8 s step ties the first trace's.
func TestInForce(t *testing.T) {
	cfg := Config{Name: "steps", CapTraces: []CapTraceSpec{
		{Nodes: []wire.NodeID{1, 2}, Steps: []CapStep{{At: 2 * time.Second, Factor: 0.5}, {At: 8 * time.Second, Factor: 1}}},
		{Nodes: []wire.NodeID{2}, Silent: true, Steps: []CapStep{{At: 5 * time.Second, Factor: 0.25}}},
		{Nodes: []wire.NodeID{2}, Steps: []CapStep{{At: 8 * time.Second, Factor: 0.6}}},
	}}
	steps := mustBuild(t, cfg, 4, 1, 0).NodeSteps()
	if got := steps[3]; got != nil {
		t.Fatalf("untraced node 3 has steps %v", got)
	}
	var silent []bool
	for _, st := range steps[2] {
		silent = append(silent, st.Silent)
	}
	if want := []bool{false, false, true, false}; !slices.Equal(silent, want) {
		t.Fatalf("node 2's steps marked silent %v, want %v", silent, want)
	}
	for _, tc := range []struct {
		name   string
		id     wire.NodeID
		at     time.Duration
		claim  bool
		factor float64
		ok     bool
	}{
		{"before the first step", 1, 2*time.Second - 1, false, 0, false},
		{"a step at exactly t", 1, 2 * time.Second, false, 0.5, true},
		{"between steps", 1, 7 * time.Second, true, 0.5, true},
		{"the later step wins across traces", 2, 6 * time.Second, false, 0.25, true},
		{"a silent step leaves the claim", 2, 6 * time.Second, true, 0.5, true},
		{"a tie goes to the later trace", 2, 8 * time.Second, false, 0.6, true},
		{"a tie goes to the later trace, for the claim too", 2, time.Minute, true, 0.6, true},
	} {
		f, ok := InForce(steps[tc.id], tc.at, tc.claim)
		if f != tc.factor || ok != tc.ok {
			t.Errorf("%s: InForce(node %d, %v, claim %v) = %v, %v; want %v, %v",
				tc.name, tc.id, tc.at, tc.claim, f, ok, tc.factor, tc.ok)
		}
	}
}
