package scenario

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/aggregation"
	"repro/internal/churn"
	"repro/internal/stream"
)

func TestDistributionFractionsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []*ClassDistribution{Ref691, Ref724, MS691} {
		for _, n := range []int{269, 100, 40, 7} {
			caps := d.Assign(n, rng)
			if len(caps) != n {
				t.Fatalf("%s: assigned %d, want %d", d.Name(), len(caps), n)
			}
			counts := map[uint32]int{}
			for _, c := range caps {
				counts[c]++
			}
			for _, cl := range d.Classes {
				want := cl.Fraction * float64(n)
				got := float64(counts[cl.Kbps])
				if math.Abs(got-want) > 1.0 {
					t.Fatalf("%s n=%d class %s: %v nodes, want ~%.1f",
						d.Name(), n, cl.Name, got, want)
				}
			}
		}
	}
}

func TestDistributionMeans(t *testing.T) {
	// Table 1: ref-691 and ms-691 average 691 kbps, ref-724 averages 724.
	// The paper's class fractions yield means a few kbps below the stated
	// averages (686.4, 717.3, 685.2) — paper rounding; allow +-8 kbps.
	if m := Ref691.MeanKbps(); math.Abs(m-691) > 8 {
		t.Errorf("ref-691 mean %.1f, want ~691", m)
	}
	if m := Ref724.MeanKbps(); math.Abs(m-724) > 8 {
		t.Errorf("ref-724 mean %.1f, want ~724", m)
	}
	if m := MS691.MeanKbps(); math.Abs(m-691) > 8 {
		t.Errorf("ms-691 mean %.1f, want ~691", m)
	}
	if m := Uniform691.MeanKbps(); math.Abs(m-691) > 1 {
		t.Errorf("uniform-691 mean %.1f, want 691", m)
	}
	// CSR (capability supply ratio) over the 600 kbps effective rate.
	g := stream.PaperGeometry()
	eff := float64(g.EffectiveRateBps()) / 1000
	if csr := Ref691.MeanKbps() / eff; math.Abs(csr-1.15) > 0.01 {
		t.Errorf("ref-691 CSR %.3f, want 1.15", csr)
	}
	if csr := Ref724.MeanKbps() / eff; math.Abs(csr-1.20) > 0.01 {
		t.Errorf("ref-724 CSR %.3f, want 1.20", csr)
	}
}

func TestDistributionClassOf(t *testing.T) {
	if got := MS691.ClassOf(512); got != "512kbps" {
		t.Errorf("ClassOf(512) = %q", got)
	}
	if got := MS691.ClassOf(9999); got == "" {
		t.Errorf("unknown capability got empty label")
	}
	if got := Uniform691.ClassOf(700); got != "uniform" {
		t.Errorf("uniform ClassOf = %q", got)
	}
}

func TestUniformAssignBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	caps := Uniform691.Assign(1000, rng)
	var sum float64
	for _, c := range caps {
		if c < Uniform691.MinKbps || c > Uniform691.MaxKbps {
			t.Fatalf("capability %d outside [%d,%d]", c, Uniform691.MinKbps, Uniform691.MaxKbps)
		}
		sum += float64(c)
	}
	mean := sum / float64(len(caps))
	if math.Abs(mean-691)/691 > 0.05 {
		t.Fatalf("uniform sample mean %.1f, want ~691", mean)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Nodes: 2, Dist: Ref691}); err == nil {
		t.Error("2 nodes accepted")
	}
	if _, err := Run(Config{Nodes: 10}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := Run(Config{Nodes: 10, Dist: Ref691, Protocol: "bogus"}); err == nil {
		t.Error("bogus protocol accepted")
	}
	// Negative aggregation settings are errors, not an Int63n panic inside
	// the event loop (period) or a HEAP run with aggregation silently off
	// (fanout, k); zero still means the default. Nor may k exceed what the
	// wire format's one-byte entry count can carry, nor the period be so
	// short that the estimator's ring (EntryTTL 15 s / AggPeriod buckets)
	// outgrows what its int16 links can name: that is an error too, not a
	// panic in NewEstimator.
	for name, mutate := range map[string]func(*Config){
		"negative AggPeriod":     func(c *Config) { c.AggPeriod = -time.Second },
		"negative AggFanout":     func(c *Config) { c.AggFanout = -1 },
		"negative AggFreshestK":  func(c *Config) { c.AggFreshestK = -1 },
		"negative AggTrackLimit": func(c *Config) { c.AggTrackLimit = -1 },
		"AggFreshestK 300":       func(c *Config) { c.AggFreshestK = 300 },
		"AggPeriod 100µs":        func(c *Config) { c.AggPeriod = 100 * time.Microsecond; c.Dist = MS691 },
		"AggPeriod 457µs":        func(c *Config) { c.AggPeriod = 457 * time.Microsecond },
	} {
		cfg := Config{Nodes: 10, Dist: Ref691, Protocol: HEAP}
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	atLimit := Config{Nodes: 10, Dist: Ref691, Protocol: HEAP, AggFreshestK: aggregation.MaxFreshestK}
	if err := atLimit.applyDefaults(); err != nil {
		t.Errorf("AggFreshestK at the wire limit rejected: %v", err)
	}
	shortest := Config{Nodes: 10, Dist: Ref691, Protocol: HEAP, AggPeriod: 458 * time.Microsecond}
	if err := shortest.applyDefaults(); err != nil {
		t.Errorf("AggPeriod 458µs, whose ring fits, rejected: %v", err)
	}
}

// smallGeometry shrinks windows (and thus stream duration per window) for
// cheap functional tests. Congestion tests must NOT use it: a ~3 s stream
// never builds up queue backlog — use the paper geometry with several
// windows instead.
func smallGeometry() stream.Geometry {
	g := stream.PaperGeometry()
	g.DataPerWindow = 20
	g.ParityPerWindow = 2
	return g
}

func TestUnconstrainedRunDeliversQuickly(t *testing.T) {
	res, err := Run(Config{
		Name:          "unconstrained",
		Nodes:         60,
		Unconstrained: true,
		Windows:       10,
		Geometry:      smallGeometry(),
		Seed:          1,
		StreamStart:   time.Second,
		Drain:         20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cdf := res.Run.Quality().LagCDF()
	// Without bandwidth constraints gossip delivers 99% of the stream to
	// the median node within a couple of seconds (Figure 1's shape).
	if p50 := cdf.ValueAtPercentile(50); p50 > 3 {
		t.Fatalf("median lag@99%% = %.2fs, want < 3s unconstrained", p50)
	}
	if p90 := cdf.ValueAtPercentile(90); math.IsInf(p90, 1) {
		t.Fatalf("10%% of nodes never reached 99%% delivery unconstrained")
	}
}

func TestVerifyPayloadsEndToEnd(t *testing.T) {
	// Full pipeline incl. FEC reconstruction and payload verification.
	res, err := Run(Config{
		Name:           "verify",
		Nodes:          30,
		Unconstrained:  true,
		Windows:        5,
		Geometry:       smallGeometry(),
		Seed:           2,
		StreamStart:    time.Second,
		Drain:          20 * time.Second,
		VerifyPayloads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyFailures != 0 {
		t.Fatalf("%d payload verification failures", res.VerifyFailures)
	}
	// 29 receivers x 5 windows, minus the handful a node may miss.
	if res.DecodedWindows < 25*5 {
		t.Fatalf("only %d windows decoded end-to-end", res.DecodedWindows)
	}
}

func TestHEAPEqualizesBandwidthUsage(t *testing.T) {
	// Figure 4b: standard gossip leaves 3 Mbps nodes underused while HEAP
	// pushes their utilization close to the rest. The two runs go through
	// the sweep engine — parallel on multi-core machines, and a controlled
	// comparison thanks to PairedSeeds (both protocols see the same seed).
	if testing.Short() {
		t.Skip("two 180-node runs (~4 s serial)")
	}
	sweep, err := RunSweep(Sweep{
		Base: Config{
			Nodes:       180,
			Dist:        MS691,
			Windows:     15,
			StreamStart: 5 * time.Second,
			Drain:       20 * time.Second,
		},
		Protocols:   []Protocol{StandardGossip, HEAP},
		BaseSeed:    4,
		PairedSeeds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stdRes := sweep.Cells[0].Runs[0]
	heapRes := sweep.Cells[1].Runs[0]
	usageByClass := func(res *Result, class string) float64 {
		var sum float64
		var n int
		for i := 1; i < len(res.CapsKbps); i++ {
			if res.Config.Dist.ClassOf(res.CapsKbps[i]) == class {
				sum += res.Usage[i]
				n++
			}
		}
		return sum / float64(n)
	}
	stdRich := usageByClass(stdRes, "3Mbps")
	heapRich := usageByClass(heapRes, "3Mbps")
	t.Logf("3Mbps-class utilization: std=%.3f heap=%.3f", stdRich, heapRich)
	if heapRich < stdRich*1.3 {
		t.Fatalf("HEAP rich utilization %.3f not clearly above standard %.3f", heapRich, stdRich)
	}
}

func TestHEAPFinalEstimatesAccurate(t *testing.T) {
	res, err := Run(Config{
		Nodes:       90,
		Dist:        MS691,
		Protocol:    HEAP,
		Windows:     4,
		Geometry:    smallGeometry(),
		Seed:        5,
		StreamStart: 5 * time.Second,
		Drain:       10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := MS691.MeanKbps()
	for i := 1; i < len(res.EstimatesKbps); i++ {
		got := res.EstimatesKbps[i]
		if math.Abs(got-want)/want > 0.25 {
			t.Fatalf("node %d bbar estimate %.0f, true mean %.0f", i, got, want)
		}
	}
}

func TestChurnRunSurvivorsRecover(t *testing.T) {
	res, err := Run(Config{
		Nodes:    80,
		Dist:     Ref691,
		Protocol: HEAP,
		Windows:  12,
		Geometry: smallGeometry(),
		Seed:     6,
		Churn: &churn.Catastrophic{
			At:         20 * time.Second,
			Fraction:   0.2,
			NotifyMean: 5 * time.Second,
		},
		StreamStart: 5 * time.Second,
		Drain:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Victims), 16; got != want {
		t.Fatalf("victims = %d, want %d", got, want)
	}
	cov := res.Run.PerWindowCoverage(15 * time.Second)
	// Late windows (published well after the failure) should be decodable
	// by ~all survivors: coverage ~ (1 - fraction).
	last := cov[len(cov)-1]
	if last < 0.70 {
		t.Fatalf("last-window coverage %.3f, want >= 0.70 (80%% survivors)", last)
	}
	// And the source must never be a victim.
	for _, v := range res.Victims {
		if v == 0 {
			t.Fatal("source was killed despite protection")
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{
		Nodes:       40,
		Dist:        Ref691,
		Protocol:    HEAP,
		Windows:     3,
		Geometry:    smallGeometry(),
		Seed:        7,
		StreamStart: 2 * time.Second,
		Drain:       10 * time.Second,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NetStats != r2.NetStats {
		t.Fatalf("network stats differ between identical runs:\n%+v\n%+v", r1.NetStats, r2.NetStats)
	}
	for i := range r1.Run.Nodes {
		a, b := r1.Run.Nodes[i].Recv, r2.Run.Nodes[i].Recv
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("node %d packet %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestStreamDurationMatchesGeometry(t *testing.T) {
	cfg := Config{Nodes: 10, Dist: Ref691, Windows: 3, Geometry: smallGeometry()}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	g := cfg.Geometry
	want := time.Duration(3*g.DataPerWindow-1) * g.Interval()
	if got := cfg.StreamDuration(); got != want {
		t.Fatalf("stream duration %v, want %v", got, want)
	}
}
