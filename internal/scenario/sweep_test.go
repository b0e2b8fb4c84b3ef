package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// sweepTestBase is a deliberately tiny scenario so sweep tests stay cheap.
func sweepTestBase() Config {
	return Config{
		Nodes:       30,
		Dist:        Ref691,
		Windows:     3,
		Geometry:    smallGeometry(),
		StreamStart: 2 * time.Second,
		Drain:       10 * time.Second,
	}
}

func TestSweepExpandGrid(t *testing.T) {
	sw := Sweep{
		Base:      sweepTestBase(),
		Protocols: []Protocol{StandardGossip, HEAP},
		Dists:     []Distribution{Ref691, MS691},
		Fanouts:   []float64{7, 15},
		Replicas:  3,
		BaseSeed:  42,
	}
	cells, specs, err := sw.expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(cells), 2*2*2; got != want {
		t.Fatalf("cells = %d, want %d", got, want)
	}
	if got, want := len(specs), 2*2*2*3; got != want {
		t.Fatalf("specs = %d, want %d", got, want)
	}
	// Grid order: protocol is the slowest axis.
	if cells[0].Key.Protocol != StandardGossip || cells[len(cells)-1].Key.Protocol != HEAP {
		t.Fatalf("unexpected grid order: first %v last %v",
			cells[0].Key, cells[len(cells)-1].Key)
	}
	if got := cells[0].Key.String(); got != "standard/ref-691/n30/f7" {
		t.Fatalf("cell name %q", got)
	}
	// Seeds must be unique across every (cell, replica) pair.
	seen := map[int64]string{}
	for _, c := range cells {
		for rep, seed := range c.Seeds {
			if prev, dup := seen[seed]; dup {
				t.Fatalf("seed %d reused by %s#%d and %s", seed, c.Key, rep, prev)
			}
			seen[seed] = c.Key.String()
		}
	}
}

func TestSweepEmptyAxesMeanBase(t *testing.T) {
	base := sweepTestBase()
	base.Protocol = HEAP
	cells, specs, err := (&Sweep{Base: base}).expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || len(specs) != 1 {
		t.Fatalf("zero-axis sweep expanded to %d cells / %d runs", len(cells), len(specs))
	}
	if cells[0].Key.Protocol != HEAP || cells[0].Key.Dist != "ref-691" {
		t.Fatalf("base values not inherited: %+v", cells[0].Key)
	}
}

func TestSweepInvalidConfigFailsFast(t *testing.T) {
	sw := Sweep{
		Base:      Config{Nodes: 2, Dist: Ref691}, // < 3 nodes is invalid
		Protocols: []Protocol{StandardGossip},
	}
	if _, err := RunSweep(sw); err == nil {
		t.Fatal("invalid base config accepted")
	}
	sw = Sweep{
		Base: sweepTestBase(),
		Variants: []Variant{{Name: "bogus", Mutate: func(c *Config) {
			c.Protocol = "no-such-protocol"
		}}},
	}
	if _, err := RunSweep(sw); err == nil {
		t.Fatal("invalid variant config accepted")
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the replay guarantee: the same
// sweep definition produces byte-identical aggregated CSV no matter how many
// workers execute it.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func(workers int) Sweep {
		return Sweep{
			Base:       sweepTestBase(),
			Protocols:  []Protocol{StandardGossip, HEAP},
			Replicas:   2,
			BaseSeed:   7,
			Workers:    workers,
			SummaryLag: 5 * time.Second,
		}
	}
	serial, err := RunSweep(build(1))
	if err != nil {
		t.Fatal(err)
	}
	// 4 workers even on a single-core box: goroutine interleaving still
	// shuffles completion order, which must not leak into the results.
	parallel, err := RunSweep(build(4))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("CSV differs between workers=1 and workers=4:\n--- serial\n%s\n--- parallel\n%s",
			a.String(), b.String())
	}
	if !strings.HasPrefix(a.String(), strings.Join(sweepCSVHeader, ",")) {
		t.Fatalf("missing CSV header:\n%s", a.String())
	}
	// Replaying a single cell with its recorded seed reproduces the run.
	cell := serial.Cells[0]
	cfg := sweepTestBase()
	cfg.Protocol = cell.Key.Protocol
	cfg.Seed = cell.Seeds[0]
	replay, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if replay.NetStats != cell.Runs[0].NetStats {
		t.Fatalf("seed replay diverged:\n%+v\n%+v", replay.NetStats, cell.Runs[0].NetStats)
	}
}

func TestSweepSummaryAndAccessors(t *testing.T) {
	sw := Sweep{
		Base: sweepTestBase(),
		Variants: []Variant{
			{Name: "std", Mutate: func(c *Config) { c.Protocol = StandardGossip }},
			{Name: "heap", Mutate: func(c *Config) { c.Protocol = HEAP }},
		},
		Replicas:   2,
		BaseSeed:   3,
		SummaryLag: 5 * time.Second,
	}
	res, err := RunSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	heap := res.CellByVariant("heap")
	if heap == nil || heap.Key.Protocol != HEAP {
		t.Fatalf("CellByVariant(heap) = %+v", heap)
	}
	if res.Find(func(k CellKey) bool { return k.Variant == "nope" }) != nil {
		t.Fatal("Find matched a nonexistent cell")
	}
	for _, c := range res.Cells {
		s := c.Summary
		if s.Replicas != 2 {
			t.Fatalf("%s: replicas %d", c.Key, s.Replicas)
		}
		// 30 nodes minus the excluded source, pooled over 2 replicas.
		if s.MeasuredNodes != 2*29 {
			t.Fatalf("%s: measured nodes %d, want 58", c.Key, s.MeasuredNodes)
		}
		if s.LagCDF.N != s.MeasuredNodes {
			t.Fatalf("%s: merged CDF has %d samples, want %d", c.Key, s.LagCDF.N, s.MeasuredNodes)
		}
		if s.JFMean < 0 || s.JFMean > 1 {
			t.Fatalf("%s: jitter-free mean %v outside [0,1]", c.Key, s.JFMean)
		}
		if s.MsgsPerRun <= 0 {
			t.Fatalf("%s: no messages recorded", c.Key)
		}
		if s.UsageMean <= 0 {
			t.Fatalf("%s: no usage recorded", c.Key)
		}
		if len(c.Runs) != 2 {
			t.Fatalf("%s: runs not kept", c.Key)
		}
	}
}

func TestSweepDropRunsAndChurnAxis(t *testing.T) {
	base := sweepTestBase()
	base.Windows = 6
	var progressCalls int
	res, err := RunSweep(Sweep{
		Base:           base,
		Protocols:      []Protocol{HEAP},
		ChurnFractions: []float64{0, 0.2},
		BaseSeed:       5,
		DropRuns:       true,
		Progress:       func(string, int, time.Duration) { progressCalls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if progressCalls != 2 {
		t.Fatalf("progress called %d times, want 2", progressCalls)
	}
	for _, c := range res.Cells {
		if c.Runs != nil {
			t.Fatalf("%s: runs kept despite DropRuns", c.Key)
		}
	}
	calm := res.Cells[0].Summary
	churned := res.Cells[1].Summary
	if res.Cells[1].Key.ChurnFraction != 0.2 {
		t.Fatalf("grid order: %+v", res.Cells[1].Key)
	}
	// A 20% mid-stream crash must not silently no-op: crashed nodes drop
	// out of the aggregates, so the churned cell measures fewer nodes.
	if churned.MeasuredNodes >= calm.MeasuredNodes {
		t.Fatalf("churn had no effect: churned cell measured %d nodes vs calm %d",
			churned.MeasuredNodes, calm.MeasuredNodes)
	}
}

// TestSweepTableRendersNeverLag: a cell whose lag percentiles land on nodes
// that never reach 99 % delivery prints "never", as the report and heapsim
// do, not Go's "+Inf".
func TestSweepTableRendersNeverLag(t *testing.T) {
	res := SweepResult{SummaryLag: 5 * time.Second, Cells: []CellResult{
		{Key: CellKey{Protocol: HEAP, Dist: "ms-691", Nodes: 40, Fanout: 7}, Summary: CellSummary{Replicas: 2, LagP50: 12.34, LagP90: 18.25}},
		{Key: CellKey{Protocol: HEAP, Dist: "ms-691", Nodes: 40, Fanout: 2}, Summary: CellSummary{Replicas: 2, LagP50: 31.5, LagP90: math.Inf(1), NeverFrac: 0.2}},
	}}
	lines := strings.Split(res.Table().Render(), "\n")
	if strings.Contains(strings.Join(lines, "\n"), "Inf") {
		t.Fatalf("table prints an infinite lag as Inf:\n%s", strings.Join(lines, "\n"))
	}
	for _, want := range [][]string{{"/f7", "12.3", "18.2"}, {"/f2", "31.5", "never"}} {
		found := false
		for _, l := range lines {
			if strings.Contains(l, want[0]) {
				found = true
				// "| cell | reps | jitter-free | lag P50 | lag P90 | ..."
				f := strings.Split(l, "|")
				if len(f) < 6 || strings.TrimSpace(f[4]) != want[1] || strings.TrimSpace(f[5]) != want[2] {
					t.Errorf("row %q: want lag columns %s and %s", l, want[1], want[2])
				}
			}
		}
		if !found {
			t.Errorf("no row for cell %s", want[0])
		}
	}
}
