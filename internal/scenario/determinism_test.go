package scenario

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/misbehave"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// These tests are the safety net for the simulator's pooled-event hot path:
// if event recycling, the indexed heap, the dense protocol tables, or the
// sweep scheduler ever let scheduling order or reused memory leak into
// results, identical seeds stop producing identical bytes and these fail.

// fingerprint serializes everything measurable about a run into bytes, so
// "byte-identical results" is checked literally. Config is excluded (it
// holds funcs); every metric — per-packet receive times, per-node counters,
// network totals — is included.
func fingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range []any{
		res.Run, res.CapsKbps, res.AdvertisedKbps, res.Usage,
		res.Victims, res.NodeNetStats, res.CoreStats, res.NetStats,
		res.EstimatesKbps, res.NetemStats,
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	if res.AdaptStats != nil {
		// Adapt-enabled runs fingerprint the full re-advertisement traces:
		// a controller decision leaking scheduling order would show here.
		if err := enc.Encode(res.AdaptStats); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	if res.AdversaryStats != nil {
		// Adversarial runs fingerprint the whole detection record — node
		// sets, per-node verdict counts, quorum times, the evidence dump,
		// and the anonymity probe: a detector verdict or probe draw leaking
		// scheduling order would show here.
		if err := enc.Encode(res.AdversaryStats); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	if res.TraceStats != nil {
		// Traced runs fingerprint the merged hop records and the offline hop
		// join's outputs: a tracer observing anything schedule-dependent (a
		// timestamp, a record order, a hop resolution) would show here.
		if err := enc.Encode(res.TraceStats); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	if res.TopoStats != nil {
		// Topology-embedded runs fingerprint the cluster layout and the WAN
		// traffic totals: a cluster assignment or inter-region counter
		// depending on schedule order would show here.
		if err := enc.Encode(res.TopoStats); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	// The derived CDFs, explicitly: the lag distribution every figure and
	// sweep summary is built from — one per stream (StreamRuns[0] is Run,
	// already encoded above; its CDF anchors the legacy fingerprint bytes).
	if err := enc.Encode(res.Run.Quality().LagCDF().Values); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	for _, run := range res.StreamRuns[1:] {
		if err := enc.Encode(run); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		if err := enc.Encode(run.Quality().LagCDF().Values); err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	return buf.Bytes()
}

// sweepReplicas is the replica count of the worker-count sweeps: two in the
// full suite, one under -short. Every grid has at least two cells, so eight
// workers still run cells side by side.
func sweepReplicas() int {
	if testing.Short() {
		return 1
	}
	return 2
}

// requireWorkerIndependent runs grid on 1 and on 8 workers and requires the
// same cells, seeds and summaries (wall-clock Elapsed aside) and
// byte-identical CSV, the exported artifact. It returns the serial result.
func requireWorkerIndependent(t *testing.T, grid func(workers int) Sweep) *SweepResult {
	t.Helper()
	serial, err := RunSweep(grid(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(grid(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != len(parallel.Cells) {
		t.Fatalf("cell count differs: %d vs %d", len(serial.Cells), len(parallel.Cells))
	}
	for i := range serial.Cells {
		s, p := serial.Cells[i], parallel.Cells[i]
		if s.Key != p.Key {
			t.Fatalf("cell %d key differs: %v vs %v", i, s.Key, p.Key)
		}
		if !reflect.DeepEqual(s.Seeds, p.Seeds) {
			t.Fatalf("cell %s seeds differ", s.Key)
		}
		ss, ps := s.Summary, p.Summary
		ss.Elapsed, ps.Elapsed = 0, 0
		if !reflect.DeepEqual(ss, ps) {
			t.Fatalf("cell %s: summaries differ between 1 and 8 workers:\n  serial:   %+v\n  parallel: %+v",
				s.Key, ss, ps)
		}
	}
	var sc, pc bytes.Buffer
	if err := serial.WriteCSV(&sc); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&pc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sc.Bytes(), pc.Bytes()) {
		t.Fatal("sweep CSV bytes differ between 1 and 8 workers")
	}
	return serial
}

func deterministicBase(seed int64) Config {
	return Config{
		Nodes:    80,
		Protocol: HEAP,
		Dist:     Ref691,
		Windows:  3,
		Seed:     seed,
		Drain:    20 * time.Second,
	}
}

// TestDeterminismRepeatedRun runs the headline scenario twice with one seed
// and requires byte-identical Result metrics, CDFs included.
func TestDeterminismRepeatedRun(t *testing.T) {
	a, err := Run(deterministicBase(41))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(deterministicBase(41))
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(t, a), fingerprint(t, b); !bytes.Equal(fa, fb) {
		t.Fatalf("same seed, different results: fingerprints differ (%d vs %d bytes)", len(fa), len(fb))
	}
	// And a different seed must NOT collide, or the fingerprint is vacuous.
	c, err := Run(deterministicBase(42))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, c)) {
		t.Fatal("different seeds produced identical fingerprints; fingerprint is not sensitive")
	}
}

// TestDeterminismLargeScaleDynamics repeats the check with the LargeScale
// dynamics active — join waves, churn bursts, Cyclon sampling — since those
// paths schedule work from callbacks and draw from their own rngs.
func TestDeterminismLargeScaleDynamics(t *testing.T) {
	cfg := LargeScaleBase(150, 7)
	cfg.Windows = 2
	cfg.Drain = 15 * time.Second
	cfg.JoinWaves = []JoinWave{{At: 6 * time.Second, Count: 30}}
	cfg.ChurnBursts = []ChurnBurst{{At: 8 * time.Second, Fraction: 0.1}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("LargeScale dynamics are not deterministic for a fixed seed")
	}
	if got := len(a.Run.Nodes); got != 180 {
		t.Fatalf("collected %d node records, want 180 (150 initial + 30 joined)", got)
	}
}

// TestDeterminismNetemDynamics repeats the byte-equality check with the
// full adverse machinery active — bursty-loss chains, a fraction-based
// partition, a latency spike, and capability traces rewriting uplinks and
// advertised values mid-run — since those paths add their own materialization
// rng, per-link chain state, and scheduled callbacks.
func TestDeterminismNetemDynamics(t *testing.T) {
	cfg := deterministicBase(19)
	cfg.Netem = &netem.Config{
		Name: "determinism",
		GE:   &netem.GEParams{PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0.001, LossBad: 0.3},
		Partitions: []netem.PartitionSpec{
			{From: 8 * time.Second, Until: 16 * time.Second, SplitFractions: []float64{0.3}},
		},
		Spikes: []netem.Spike{
			{At: 10 * time.Second, Duration: 8 * time.Second, Extra: 300 * time.Millisecond, Ramp: 2 * time.Second},
		},
		CapTraces: []netem.CapTraceSpec{
			{Fraction: 0.4, Steps: []netem.CapStep{
				{At: 9 * time.Second, Factor: 0.3},
				{At: 20 * time.Second, Factor: 1},
			}},
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("netem dynamics are not deterministic for a fixed seed")
	}
	if len(a.NetemStats) == 0 {
		t.Fatal("netem stats missing from the result")
	}
	// The adverse run must differ from the clean run with the same seed, or
	// the netem path silently did nothing.
	clean, err := Run(deterministicBase(19))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, clean)) {
		t.Fatal("adverse and clean runs produced identical fingerprints")
	}
}

// TestDeterminismEmptyNetemMatchesPlain pins the zero-config guarantee from
// inside: an *empty* netem config builds an engine holding only the base
// Bernoulli loss stage, whose rng draw sequence must match the plain
// LossRate path exactly — every metric byte-identical.
func TestDeterminismEmptyNetemMatchesPlain(t *testing.T) {
	plain, err := Run(deterministicBase(29))
	if err != nil {
		t.Fatal(err)
	}
	cfg := deterministicBase(29)
	cfg.Netem = &netem.Config{Name: "empty"}
	wrapped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NetemStats legitimately differ (nil vs base-loss counters); everything
	// measurable about the protocols must not.
	wrapped.NetemStats = nil
	if !bytes.Equal(fingerprint(t, plain), fingerprint(t, wrapped)) {
		t.Fatal("an empty netem config changed run results; the base-loss draw order must match the plain path")
	}
}

// TestDeterminismNetemSweepWorkers re-checks worker-count independence with
// the adverse variant axis active: 1 and 8 workers must produce identical
// summaries and byte-identical CSV exports.
func TestDeterminismNetemSweepWorkers(t *testing.T) {
	adv, err := AdverseVariants("bursty", "captrace")
	if err != nil {
		t.Fatal(err)
	}
	grid := func(workers int) Sweep {
		return Sweep{
			Base:      deterministicBase(0),
			Protocols: []Protocol{StandardGossip, HEAP},
			Variants:  append([]Variant{{Name: "baseline"}}, adv...),
			Replicas:  sweepReplicas(),
			BaseSeed:  31,
			Workers:   workers,
			DropRuns:  true,
		}
	}
	requireWorkerIndependent(t, grid)
}

// adaptBase is the determinism suite's adaptation configuration: degraded
// nodes under closed-loop re-estimation, so controller decisions (cut,
// cooldown, probe) are all exercised.
func adaptBase(seed int64) Config {
	cfg := adaptDegradedBase(seed)
	cfg.Windows = 8
	cfg.Adapt = &adapt.Config{}
	return cfg
}

// TestDeterminismAdaptRepeatedRun extends the byte-equality check to
// adapt-enabled runs: the controller samples the simulator's queue state on
// the engine's tickers, and its verdicts (including every re-advertisement
// trace entry) must be a pure function of the seed.
func TestDeterminismAdaptRepeatedRun(t *testing.T) {
	a, err := Run(adaptBase(47))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(adaptBase(47))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("adapt-enabled run is not deterministic for a fixed seed")
	}
	if a.AdaptStats == nil || a.AdaptStats.Readvertisements == 0 {
		t.Fatal("adaptation never engaged; the fingerprint check is vacuous")
	}
	// And adaptation must be load-bearing: the same seed without Adapt must
	// not collide (the controller actually changed the run).
	off := adaptBase(47)
	off.Adapt = nil
	c, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, c)) {
		t.Fatal("adapt-on and adapt-off runs produced identical fingerprints")
	}
}

// TestDeterminismAdaptSweepWorkers re-checks worker-count independence with
// the adaptation axis active: 1 and 8 workers must export byte-identical
// CSV for an adapt-on/adapt-off grid.
func TestDeterminismAdaptSweepWorkers(t *testing.T) {
	grid := func(workers int) Sweep {
		return Sweep{
			Base:      adaptBase(0),
			Protocols: []Protocol{StandardGossip, HEAP},
			Variants: []Variant{
				{Name: "adapt-off", Mutate: func(c *Config) { c.Adapt = nil }},
				{Name: "adapt-on"},
			},
			Replicas: sweepReplicas(),
			BaseSeed: 53,
			Workers:  workers,
			DropRuns: true,
		}
	}
	requireWorkerIndependent(t, grid)
}

// adversaryDetBase is the determinism suite's adversarial configuration:
// all three adversary classes with armed detectors, so verdict evaluation,
// quarantine routing (sampler redraws, retry-rotation skips, aggregation
// exclusion), and the anonymity probe are all exercised.
func adversaryDetBase(seed int64) Config {
	cfg := adversaryBase(seed)
	cfg.Windows = 8
	cfg.Adversary = &AdversarySpec{
		FreeriderFraction: 0.08,
		LiarFraction:      0.05,
		DropperFraction:   0.05,
		Detect:            &misbehave.Config{},
	}
	return cfg
}

// TestDeterminismAdversaryRepeatedRun extends the byte-equality check to
// adversarial runs: detector verdicts reroute gossip mid-run (extra sampler
// draws on quarantine), so any rng-order or map-order leak in the detection
// path breaks byte equality here. AdversaryStats itself is part of the
// fingerprint.
func TestDeterminismAdversaryRepeatedRun(t *testing.T) {
	a, err := Run(adversaryDetBase(59))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(adversaryDetBase(59))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("adversarial run is not deterministic for a fixed seed")
	}
	if a.AdversaryStats == nil || a.AdversaryStats.QuarantineEvents == 0 {
		t.Fatal("no quarantine ever happened; the fingerprint check is vacuous")
	}
	// The detector must be load-bearing: the same seed with observe-only
	// detectors must not collide.
	off := adversaryDetBase(59)
	off.Adversary.Detect = nil
	c, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, c)) {
		t.Fatal("armed and observe-only runs produced identical fingerprints")
	}
}

// TestDeterminismAdversarySweepWorkers re-checks worker-count independence
// with the adversary axis active: 1 and 8 workers must export byte-identical
// CSV for the honest/detector-off/detector-on grid.
func TestDeterminismAdversarySweepWorkers(t *testing.T) {
	grid := func(workers int) Sweep {
		return Sweep{
			Base:     adversaryDetBase(0),
			Variants: AdversaryVariants(AdversarySpec{FreeriderFraction: 0.1}),
			Replicas: sweepReplicas(),
			BaseSeed: 61,
			Workers:  workers,
			DropRuns: true,
		}
	}
	requireWorkerIndependent(t, grid)
}

// traceBase is the determinism suite's traced configuration: every 2nd
// packet id sampled on every node, so the offline hop join resolves nearly
// all serve-path deliveries.
func traceBase(seed int64) Config {
	cfg := deterministicBase(seed)
	cfg.Trace = &telemetry.TraceConfig{SampleEvery: 2, RingCap: 4096}
	return cfg
}

// TestDeterminismTraceRepeatedRun extends the byte-equality check to traced
// runs, and pins the two guarantees the tracer makes: the trace itself is a
// pure function of the seed (byte-identical JSONL across runs), and tracing
// is purely observational (a traced run's protocol results are byte-identical
// to the same seed untraced).
func TestDeterminismTraceRepeatedRun(t *testing.T) {
	a, err := Run(traceBase(67))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(traceBase(67))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("traced run is not deterministic for a fixed seed")
	}
	ts := a.TraceStats
	if ts == nil || len(ts.Hops) == 0 {
		t.Fatal("traced run collected no hop records; the fingerprint check is vacuous")
	}
	if ts.Truncated != 0 {
		t.Fatalf("ring truncated %d records at this scale; sizing is wrong", ts.Truncated)
	}
	if ts.Publishes == 0 || ts.Deliveries == 0 {
		t.Fatalf("hop join saw %d publishes, %d deliveries", ts.Publishes, ts.Deliveries)
	}
	if ts.MeanHops() <= 0 {
		t.Fatalf("mean hops = %v", ts.MeanHops())
	}
	var ja, jb bytes.Buffer
	if err := a.TraceStats.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.TraceStats.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("trace JSONL export is not byte-identical across same-seed runs")
	}
	// Tracing must be a pure observer: strip the trace from the traced run
	// and the remaining fingerprint must equal the untraced run's exactly.
	untraced, err := Run(deterministicBase(67))
	if err != nil {
		t.Fatal(err)
	}
	a.TraceStats = nil
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, untraced)) {
		t.Fatal("enabling tracing changed protocol results; the hook must be purely observational")
	}
}

// TestDeterminismTraceSweepWorkers re-checks worker-count independence with
// the tracing axis active: 1 and 8 workers must export byte-identical CSV
// for a trace-on/trace-off grid (tracers are per-run state; a leak between
// concurrently executing cells would show here).
func TestDeterminismTraceSweepWorkers(t *testing.T) {
	grid := func(workers int) Sweep {
		return Sweep{
			Base:      traceBase(0),
			Protocols: []Protocol{StandardGossip, HEAP},
			Variants: []Variant{
				{Name: "trace-off", Mutate: func(c *Config) { c.Trace = nil }},
				{Name: "trace-on"},
			},
			Replicas: sweepReplicas(),
			BaseSeed: 71,
			Workers:  workers,
			DropRuns: true,
		}
	}
	requireWorkerIndependent(t, grid)
}

// multiSourceBase is the determinism suite's multi-source configuration:
// two staggered broadcasters competing for the shared upload budget, small
// enough to run many times.
func multiSourceBase(seed int64) Config {
	cfg := deterministicBase(seed)
	cfg.Streams = []StreamSpec{
		{},
		{Start: 7 * time.Second},
	}
	return cfg
}

// TestDeterminismMultiSourceRepeatedRun extends the byte-equality check to
// multi-source runs: per-stream engine states, the fanout-budget allocator,
// and the per-stream collection must all be schedule-independent. The
// fingerprint covers every stream's records and lag CDF.
func TestDeterminismMultiSourceRepeatedRun(t *testing.T) {
	a, err := Run(multiSourceBase(43))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(multiSourceBase(43))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("multi-source run is not deterministic for a fixed seed")
	}
	if len(a.StreamRuns) != 2 {
		t.Fatalf("StreamRuns = %d, want 2", len(a.StreamRuns))
	}
	// The second stream's records must be load-bearing in the fingerprint:
	// a run with a different second-stream stagger must not collide.
	cfg := multiSourceBase(43)
	cfg.Streams[1].Start = 9 * time.Second
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, c)) {
		t.Fatal("fingerprint is insensitive to the second stream")
	}
}

// TestDeterminismMultiSourceSweepWorkers fingerprints a multi-source sweep
// byte-for-byte across 1 vs 8 workers: the multi-stream collection path
// (per-stream runs pooled into cell summaries) must not let scheduling
// order leak into the exported bytes.
func TestDeterminismMultiSourceSweepWorkers(t *testing.T) {
	grid := func(workers int) Sweep {
		return Sweep{
			Base:      multiSourceBase(0),
			Protocols: []Protocol{StandardGossip, HEAP},
			Replicas:  sweepReplicas(),
			BaseSeed:  37,
			Workers:   workers,
			DropRuns:  true,
		}
	}
	for _, cell := range requireWorkerIndependent(t, grid).Cells {
		// Multi-source cells pool both streams' node samples.
		if want := (cell.Key.Nodes - 1) * 2 * sweepReplicas(); cell.Summary.MeasuredNodes != want {
			t.Fatalf("cell %s pooled %d node samples, want %d (nodes-1 x 2 streams x replicas)",
				cell.Key, cell.Summary.MeasuredNodes, want)
		}
	}
}

// TestDeterminismSweepWorkers runs one grid serially and on 8 workers and
// requires identical cell summaries (and CSV bytes — the exported artifact).
func TestDeterminismSweepWorkers(t *testing.T) {
	grid := func(workers int) Sweep {
		return Sweep{
			Base:      deterministicBase(0),
			Protocols: []Protocol{StandardGossip, HEAP},
			Dists:     []Distribution{Ref691, MS691},
			Replicas:  sweepReplicas(),
			BaseSeed:  23,
			Workers:   workers,
			DropRuns:  true,
		}
	}
	requireWorkerIndependent(t, grid)
}

// topologyBase is the determinism suite's clustered configuration: three
// clusters with WAN-scale inter bands and a split fanout, so the clustered
// latency model, the cluster-partitioned views, the split budget's stochastic
// rounding, and the WAN accounting are all exercised.
func topologyBase(seed int64) Config {
	cfg := deterministicBase(seed)
	cfg.Topology = &topo.Config{
		Name:     "det3",
		Clusters: 3,
		IntraMin: 2 * time.Millisecond, IntraMax: 12 * time.Millisecond,
		InterMin: 60 * time.Millisecond, InterMax: 140 * time.Millisecond,
		Jitter: 4 * time.Millisecond,
	}
	cfg.FanoutIntra, cfg.FanoutInter = 5, 2
	return cfg
}

// TestDeterminismTopologyRepeatedRun extends the byte-equality check to
// topology-embedded hierarchical runs: the clustered latency model, the
// split sampler's partial shuffles, and the per-node WAN counters must all be
// pure functions of the seed. TopoStats itself is part of the fingerprint.
func TestDeterminismTopologyRepeatedRun(t *testing.T) {
	a, err := Run(topologyBase(73))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(topologyBase(73))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("topology-embedded run is not deterministic for a fixed seed")
	}
	ts := a.TopoStats
	if ts == nil || ts.InterBytes == 0 || ts.InterBytes >= ts.TotalBytes {
		t.Fatalf("TopoStats implausible: %+v", ts)
	}
	total := 0
	for _, s := range ts.Sizes {
		if s == 0 {
			t.Fatalf("empty cluster in %v at n=80", ts.Sizes)
		}
		total += s
	}
	if total != 80 {
		t.Fatalf("cluster sizes sum to %d, want 80", total)
	}
	// A different seed must not collide (it reshapes the clusters too).
	c, err := Run(topologyBase(74))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, c)) {
		t.Fatal("different seeds produced identical topology fingerprints")
	}
	// And the split fanout must be load-bearing: the same clustered network
	// under the topology-blind protocol must differ.
	blind := topologyBase(73)
	blind.FanoutIntra, blind.FanoutInter = 0, 0
	d, err := Run(blind)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fingerprint(t, a), fingerprint(t, d)) {
		t.Fatal("topology-blind and topology-aware runs produced identical fingerprints")
	}
	if d.TopoStats == nil || d.TopoStats.InterBytes == 0 {
		t.Fatal("topology-blind run collected no WAN accounting")
	}
}

// TestDeterminismTopologyShardCounts runs the clustered hierarchical
// configuration — plus a region-targeted partition and region spike riding
// on the topology's own cluster cuts — at 1, 2, and 8 shards and requires
// byte-identical fingerprints. The clustered model's MinLatency feeds the
// sharded simulator's conservative lookahead; an optimistic bound (a pair
// latency below the declared minimum) would dispatch cross-shard events out
// of canonical order and break byte equality here.
func TestDeterminismTopologyShardCounts(t *testing.T) {
	build := func() Config {
		cfg := topologyBase(73)
		cfg.Netem = &netem.Config{
			Name: "topo-shard-determinism",
			Partitions: []netem.PartitionSpec{
				{From: 8 * time.Second, Until: 14 * time.Second, Regions: [][]int{{0}}},
			},
			RegionSpikes: []netem.RegionSpike{
				{Spike: netem.Spike{At: 16 * time.Second, Duration: 6 * time.Second, Extra: 150 * time.Millisecond}, Regions: []int{1}},
			},
		}
		return cfg
	}
	var ref []byte
	for _, shards := range []int{1, 2, 8} {
		cfg := build()
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		fp := fingerprint(t, res)
		if ref == nil {
			ref = fp
			continue
		}
		if !bytes.Equal(ref, fp) {
			t.Fatalf("shards=%d fingerprint differs from sequential reference (%d vs %d bytes)",
				shards, len(fp), len(ref))
		}
	}
}

// TestDeterminismTopologySweepWorkers re-checks worker-count independence
// with the topology axis active: 1 and 8 workers must export byte-identical
// CSV for a blind/aware grid over the clustered network.
func TestDeterminismTopologySweepWorkers(t *testing.T) {
	base := topologyBase(0)
	grid := func(workers int) Sweep {
		return Sweep{
			Base:     deterministicBase(0),
			Variants: TopologyVariants(*base.Topology, base.FanoutIntra, base.FanoutInter),
			Replicas: sweepReplicas(),
			BaseSeed: 79,
			Workers:  workers,
			DropRuns: true,
		}
	}
	requireWorkerIndependent(t, grid)
}

// TestDeterminismShardCounts is the sharded simulator's oracle: the same
// configuration and seed must produce byte-identical fingerprints at 1, 2,
// and 8 shards. The single-shard run is the sequential reference; any
// ordering leak in the windowed execution or the exchange barrier — an event
// dispatched out of canonical order, an rng draw moved across a window, a
// barrier merge influencing dispatch order — breaks byte equality here. The
// matrix deliberately spans the subsystems with their own scheduled state:
// netem dynamics, multi-source streams, closed-loop adaptation, tracing, and
// the LargeScale join/churn/freeze machinery. Under -short each case runs
// at 1 and 8 shards only; make race-detect runs the full matrix.
func TestDeterminismShardCounts(t *testing.T) {
	shardCounts := []int{1, 2, 8}
	if testing.Short() {
		shardCounts = []int{1, 8}
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"base", func() Config { return deterministicBase(41) }},
		{"netem", func() Config {
			cfg := deterministicBase(19)
			cfg.Netem = &netem.Config{
				Name: "shard-determinism",
				GE:   &netem.GEParams{PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0.001, LossBad: 0.3},
				Partitions: []netem.PartitionSpec{
					{From: 8 * time.Second, Until: 16 * time.Second, SplitFractions: []float64{0.3}},
				},
				Spikes: []netem.Spike{
					{At: 10 * time.Second, Duration: 8 * time.Second, Extra: 300 * time.Millisecond, Ramp: 2 * time.Second},
				},
				CapTraces: []netem.CapTraceSpec{
					{Fraction: 0.4, Steps: []netem.CapStep{
						{At: 9 * time.Second, Factor: 0.3},
						{At: 20 * time.Second, Factor: 1},
					}},
				},
			}
			return cfg
		}},
		{"multisource", func() Config { return multiSourceBase(43) }},
		{"adapt", func() Config { return adaptBase(47) }},
		{"trace", func() Config { return traceBase(67) }},
		{"topology", func() Config { return topologyBase(73) }},
		{"dynamics", func() Config {
			cfg := LargeScaleBase(150, 7)
			cfg.Windows = 2
			cfg.Drain = 15 * time.Second
			cfg.JoinWaves = []JoinWave{{At: 6 * time.Second, Count: 30}}
			cfg.ChurnBursts = []ChurnBurst{{At: 8 * time.Second, Fraction: 0.1}}
			cfg.FreezesPerNode = 0.2
			return cfg
		}},
		{"capability dynamics", func() Config {
			// A join wave lands while a trace step is in force, and liars
			// (wave members among them) start lying late: every node is
			// built with capAt, and steps and onsets re-apply it.
			cfg := deterministicBase(53)
			cfg.JoinWaves = []JoinWave{{At: 12 * time.Second, Count: 20}}
			cfg.Netem = &netem.Config{Name: "capability-dynamics", CapTraces: []netem.CapTraceSpec{
				{Fraction: 0.3, Steps: []netem.CapStep{{At: 8 * time.Second, Factor: 0.35}, {At: 20 * time.Second, Factor: 1}}},
				{Fraction: 0.2, Silent: true, Steps: []netem.CapStep{{At: 10 * time.Second, Factor: 0.5}}},
			}}
			cfg.Adversary = &AdversarySpec{LiarFraction: 0.2, Onset: 5 * time.Second}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, shards := range shardCounts {
				cfg := tc.cfg()
				cfg.Shards = shards
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				fp := fingerprint(t, res)
				if ref == nil {
					ref = fp
					continue
				}
				if !bytes.Equal(ref, fp) {
					t.Fatalf("shards=%d fingerprint differs from sequential reference (%d vs %d bytes)",
						shards, len(fp), len(ref))
				}
			}
		})
	}
}
