package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// tinyGeom: windows of 3 source + 2 parity packets, 100 B at 8 kbps
// -> interval = 100ms, window = 5 packets.
func tinyGeom() stream.Geometry {
	return stream.Geometry{RateBps: 8_000, PacketBytes: 100, DataPerWindow: 3, ParityPerWindow: 2}
}

// buildRun constructs a Run with the given per-node lags (in ms); -1 = never
// received. lags[node][packet].
func buildRun(t *testing.T, g stream.Geometry, windows int, lags [][]int) *Run {
	t.Helper()
	total := g.TotalPackets(windows)
	pub := make([]time.Duration, total)
	for id := 0; id < total; id++ {
		pub[id] = g.PublishOffset(wire.PacketID(id))
	}
	run := &Run{Geometry: g, Windows: windows, PublishAt: pub}
	for ni, nodeLags := range lags {
		if len(nodeLags) != total {
			t.Fatalf("node %d: %d lags for %d packets", ni, len(nodeLags), total)
		}
		recv := make([]time.Duration, total)
		for id, ms := range nodeLags {
			if ms < 0 {
				recv[id] = stream.NotReceived
			} else {
				recv[id] = pub[id] + time.Duration(ms)*time.Millisecond
			}
		}
		run.Nodes = append(run.Nodes, NodeRecord{
			Node:  wire.NodeID(ni),
			Class: "test",
			Recv:  recv,
		})
	}
	if err := run.Validate(); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestValidateDimensions(t *testing.T) {
	g := tinyGeom()
	run := &Run{Geometry: g, Windows: 2, PublishAt: make([]time.Duration, 3)}
	if err := run.Validate(); err == nil {
		t.Fatal("wrong publish count accepted")
	}
}

func TestWindowDecodeLags(t *testing.T) {
	g := tinyGeom()
	// One window, 5 packets. Lags 10,20,30,40,50 ms: decodable (3 of 5)
	// once the 3rd-smallest lag (30 ms) is reached.
	run := buildRun(t, g, 1, [][]int{{10, 20, 30, 40, 50}})
	d := run.WindowDecodeLags(&run.Nodes[0])
	if len(d) != 1 || d[0] != 30*time.Millisecond {
		t.Fatalf("decode lags = %v, want [30ms]", d)
	}
	// Only 2 packets received: never decodable.
	run2 := buildRun(t, g, 1, [][]int{{10, 20, -1, -1, -1}})
	d2 := run2.WindowDecodeLags(&run2.Nodes[0])
	if d2[0] != Never {
		t.Fatalf("decode lag = %v, want Never", d2[0])
	}
	// Parity packets count toward decodability: source missing entirely.
	run3 := buildRun(t, g, 1, [][]int{{-1, -1, 5, 15, 25}})
	d3 := run3.WindowDecodeLags(&run3.Nodes[0])
	if d3[0] != 25*time.Millisecond {
		t.Fatalf("decode lag = %v, want 25ms (parity counts)", d3[0])
	}
}

func TestJitterFreeShare(t *testing.T) {
	g := tinyGeom()
	// Two windows: first decodable at 30ms, second never (2 received).
	run := buildRun(t, g, 2, [][]int{{10, 20, 30, 40, 50, 10, 20, -1, -1, -1}})
	n := &run.Nodes[0]
	if got := run.JitterFreeShare(n, 30*time.Millisecond); got != 0.5 {
		t.Fatalf("share at 30ms = %v, want 0.5", got)
	}
	if got := run.JitterFreeShare(n, 20*time.Millisecond); got != 0 {
		t.Fatalf("share at 20ms = %v, want 0", got)
	}
	// Offline: still only window 0 is ever decodable.
	if got := run.JitterFreeShare(n, Never); got != 0.5 {
		t.Fatalf("offline share = %v, want 0.5", got)
	}
}

func TestMinLagForJitterFree(t *testing.T) {
	g := tinyGeom()
	// Four windows with decode lags 30, 60, 90, Never-free? Construct:
	// w0: lags 10,20,30 -> 30ms; w1: 40,50,60 -> 60ms; w2: 70,80,90 -> 90ms;
	// w3: 10,10,10 -> 10ms.
	lags := []int{
		10, 20, 30, -1, -1,
		40, 50, 60, -1, -1,
		70, 80, 90, -1, -1,
		10, 10, 10, -1, -1,
	}
	run := buildRun(t, g, 4, [][]int{lags})
	n := &run.Nodes[0]
	if got := run.MinLagForJitterFree(n, 0); got != 90*time.Millisecond {
		t.Fatalf("min lag (0%% jitter) = %v, want 90ms", got)
	}
	// Allowing 25% jitter drops the worst window (90ms) from the requirement.
	if got := run.MinLagForJitterFree(n, 0.25); got != 60*time.Millisecond {
		t.Fatalf("min lag (25%% jitter) = %v, want 60ms", got)
	}
	// A never-decodable window forces Never at 0% jitter tolerance.
	lags2 := append([]int{}, lags...)
	lags2[0], lags2[1], lags2[2] = -1, -1, -1 // w0 now has only parity... none received
	run2 := buildRun(t, g, 4, [][]int{lags2})
	if got := run2.MinLagForJitterFree(&run2.Nodes[0], 0); got != Never {
		t.Fatalf("min lag with dead window = %v, want Never", got)
	}
	if got := run2.MinLagForJitterFree(&run2.Nodes[0], 0.25); got != 90*time.Millisecond {
		t.Fatalf("min lag (25%%) with dead window = %v, want 90ms", got)
	}
}

func TestLagForDeliveryRatio(t *testing.T) {
	g := tinyGeom()
	// 2 windows = 6 source packets. Lags: 10..60ms. 99% of 6 -> need all 6:
	// lag = 60ms. 50% -> need 3: lag = 30ms.
	lags := []int{10, 20, 30, -1, -1, 40, 50, 60, -1, -1}
	run := buildRun(t, g, 2, [][]int{lags})
	n := &run.Nodes[0]
	if got := run.LagForDeliveryRatio(n, 0.99); got != 60*time.Millisecond {
		t.Fatalf("lag@99%% = %v, want 60ms", got)
	}
	if got := run.LagForDeliveryRatio(n, 0.5); got != 30*time.Millisecond {
		t.Fatalf("lag@50%% = %v, want 30ms", got)
	}
	// Missing a source packet: 99% unreachable.
	lags2 := append([]int{}, lags...)
	lags2[0] = -1
	run2 := buildRun(t, g, 2, [][]int{lags2})
	if got := run2.LagForDeliveryRatio(&run2.Nodes[0], 0.99); got != Never {
		t.Fatalf("lag@99%% with loss = %v, want Never", got)
	}
	// Parity packets must not count toward the stream delivery ratio: with
	// all parity present but only 3 of 6 source, 0.99 is unreachable.
	lags3 := []int{10, 20, 30, 5, 5, -1, -1, -1, 5, 5}
	run3 := buildRun(t, g, 2, [][]int{lags3})
	if got := run3.LagForDeliveryRatio(&run3.Nodes[0], 0.99); got != Never {
		t.Fatalf("parity counted in delivery ratio: %v", got)
	}
}

func TestDeliveryRatioInJitteredWindows(t *testing.T) {
	g := tinyGeom()
	// w0 decodable at 30ms; w1 jittered at 30ms with 2 of 3 source arrived
	// by the deadline (lags 10 and 20; third never).
	lags := []int{10, 20, 30, -1, -1, 10, 20, -1, -1, -1}
	run := buildRun(t, g, 2, [][]int{lags})
	n := &run.Nodes[0]
	ratio, any := run.DeliveryRatioInJitteredWindows(n, 30*time.Millisecond)
	if !any {
		t.Fatal("expected a jittered window")
	}
	if want := 2.0 / 3.0; math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("ratio = %v, want %v", ratio, want)
	}
	// At offline lag the only jittered window is w1 (never decodable).
	ratio, any = run.DeliveryRatioInJitteredWindows(n, Never)
	if !any || math.Abs(ratio-2.0/3.0) > 1e-9 {
		t.Fatalf("offline ratio = %v,%v", ratio, any)
	}
	// Node with everything on time has no jittered windows.
	lags2 := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	run2 := buildRun(t, g, 2, [][]int{lags2})
	if _, any := run2.DeliveryRatioInJitteredWindows(&run2.Nodes[0], time.Second); any {
		t.Fatal("fully delivered node reported jittered windows")
	}
}

func TestPerWindowCoverage(t *testing.T) {
	g := tinyGeom()
	// Node 0 decodes w0 at 30ms and w1 never; node 1 decodes both at 10ms.
	lags := [][]int{
		{10, 20, 30, -1, -1, 10, 20, -1, -1, -1},
		{10, 10, 10, -1, -1, 10, 10, 10, -1, -1},
	}
	run := buildRun(t, g, 2, lags)
	cov := run.PerWindowCoverage(50 * time.Millisecond)
	if cov[0] != 1.0 {
		t.Fatalf("w0 coverage = %v, want 1", cov[0])
	}
	if cov[1] != 0.5 {
		t.Fatalf("w1 coverage = %v, want 0.5", cov[1])
	}
	// Excluded nodes leave the denominator; crashed nodes stay.
	run.Nodes[1].Excluded = true
	cov = run.PerWindowCoverage(50 * time.Millisecond)
	if cov[1] != 0 {
		t.Fatalf("w1 coverage after exclusion = %v, want 0", cov[1])
	}
}

func TestClassGrouping(t *testing.T) {
	g := tinyGeom()
	lags := [][]int{
		{1, 1, 1, 1, 1},
		{1, 1, 1, 1, 1},
		{1, 1, 1, 1, 1},
	}
	run := buildRun(t, g, 1, lags)
	run.Nodes[0].Class, run.Nodes[0].CapKbps = "poor", 256
	run.Nodes[1].Class, run.Nodes[1].CapKbps = "rich", 2000
	run.Nodes[2].Class, run.Nodes[2].CapKbps = "poor", 256
	q := run.Quality()
	classes := q.Classes()
	if len(classes) != 2 || classes[0] != "poor" || classes[1] != "rich" {
		t.Fatalf("classes = %v", classes)
	}
	if poor, rich := q.Class("poor").Len(), q.Class("rich").Len(); poor != 2 || rich != 1 {
		t.Fatalf("per-class nodes: poor %d, rich %d", poor, rich)
	}
	// Excluded and crashed nodes do not count, nor do their classes.
	run.Nodes[1].Crashed = true
	run.Nodes[2].Excluded = true
	q = run.Quality()
	if classes := q.Classes(); len(classes) != 1 || classes[0] != "poor" || q.Len() != 1 {
		t.Fatalf("after crash/exclusion: classes %v, %d nodes", classes, q.Len())
	}
}

// TestQualityMatchesPerNodeMetrics checks that the read-out's per-node
// samples equal the per-node Run methods, in node order.
func TestQualityMatchesPerNodeMetrics(t *testing.T) {
	g := tinyGeom()
	lags := [][]int{
		{10, 20, 30, -1, 90, 10, 20, 30, 40, 50},
		{-1, -1, 30, -1, -1, 10, 15, -1, 40, 60},
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
	run := buildRun(t, g, 2, lags)
	run.Nodes[3].Crashed = true
	q := run.Quality()
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	lag := 35 * time.Millisecond
	jf, min0, lagCDF := q.JitterFree(lag), q.MinLags(0), q.LagCDF()
	var want99 []float64
	for i := 0; i < 3; i++ {
		n := &run.Nodes[i]
		if got, want := jf[i], run.JitterFreeShare(n, lag); got != want {
			t.Errorf("node %d: JitterFree %v, want %v", i, got, want)
		}
		if got, want := min0[i], Seconds(run.MinLagForJitterFree(n, 0)); got != want {
			t.Errorf("node %d: MinLags %v, want %v", i, got, want)
		}
		want99 = append(want99, Seconds(run.LagForDeliveryRatio(n, 0.99)))
	}
	if want := NewCDF(want99); !slices.Equal(lagCDF.Values, want.Values) {
		t.Errorf("LagCDF %v, want %v", lagCDF.Values, want.Values)
	}
	// Only node 1 has jittered windows at 35 ms: window 0 never decodes (1
	// of its 3 source packets in time), window 1 decodes at 40 ms (2 of 3).
	if mean, nodes := q.JitteredDeliveryRatio(lag); nodes != 1 || mean != 0.5 {
		t.Errorf("JitteredDeliveryRatio = %v over %d nodes, want 0.5 over 1", mean, nodes)
	}
	if got := q.Received(); got[0] != 0.9 || got[1] != 0.5 || got[2] != 1 {
		t.Errorf("Received = %v", got)
	}
	if got := q.DeliveredWithin(25 * time.Millisecond); got[0] != 4.0/6 || got[1] != 2.0/6 || got[2] != 1 {
		t.Errorf("DeliveredWithin(25ms) = %v", got)
	}
}

func TestLagRendering(t *testing.T) {
	if got := FormatLag(Seconds(Never)); got != "never" {
		t.Errorf("FormatLag(Never) = %q", got)
	}
	if got := FormatLag(1.26); got != "1.3" {
		t.Errorf("FormatLag(1.26) = %q", got)
	}
	c := NewCDF([]float64{1, 2, 3, math.Inf(1)})
	if got := c.Spread(); got != "2.0 / never" {
		t.Errorf("Spread = %q", got)
	}
	if got := c.NeverFrac(); got != 0.25 {
		t.Errorf("NeverFrac = %v, want 0.25", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if got := c.FractionAtOrBelow(2); got != 0.5 {
		t.Fatalf("F(2) = %v, want 0.5", got)
	}
	if got := c.FractionAtOrBelow(0.5); got != 0 {
		t.Fatalf("F(0.5) = %v, want 0", got)
	}
	if got := c.FractionAtOrBelow(4); got != 1 {
		t.Fatalf("F(4) = %v, want 1", got)
	}
	if got := c.ValueAtPercentile(50); got != 2 {
		t.Fatalf("P50 = %v, want 2", got)
	}
	if got := c.ValueAtPercentile(100); got != 4 {
		t.Fatalf("P100 = %v, want 4", got)
	}
	if got := c.ValueAtPercentile(0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	inf := NewCDF([]float64{1, math.Inf(1)})
	if got := inf.FiniteMax(); got != 1 {
		t.Fatalf("FiniteMax = %v, want 1", got)
	}
	if got := NewCDF(nil).ValueAtPercentile(50); !math.IsNaN(got) {
		t.Fatalf("empty CDF percentile = %v, want NaN", got)
	}
}

func TestMeanSkipsInfinities(t *testing.T) {
	if got := Mean([]float64{1, 3, math.Inf(1)}); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
	if got := Mean([]float64{math.Inf(1)}); !math.IsNaN(got) {
		t.Fatalf("mean of inf = %v, want NaN", got)
	}
	if got := CountInf([]float64{1, Seconds(Never), 3, Seconds(time.Hour)}); got != 1 {
		t.Fatalf("CountInf = %d, want 1", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(1500 * time.Millisecond); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := Seconds(Never); !math.IsInf(got, 1) {
		t.Fatalf("Seconds(Never) = %v, want +Inf", got)
	}
}

func TestPlotRender(t *testing.T) {
	p := Plot{Title: "test plot", XLabel: "seconds", YLabel: "% nodes", XMax: 10, YMax: 100}
	p.Add("heap", []Point{{1, 50}, {2, 90}, {3, 100}})
	p.Add("std", []Point{{5, 50}, {8, 90}})
	out := p.Render()
	for _, want := range []string{"test plot", "heap", "std", "seconds", "% nodes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot output missing %q:\n%s", want, out)
		}
	}
	// Inf points must not panic or appear.
	p2 := Plot{}
	p2.Add("x", []Point{{math.Inf(1), 1}, {1, math.NaN()}})
	_ = p2.Render()
}

func TestTableRender(t *testing.T) {
	tb := Table{Headers: []string{"class", "std", "heap"}}
	tb.AddRow("512kbps", "42.8%", "83.7%")
	tb.AddRow("3Mbps", "64.5%", "90.9%")
	out := tb.Render()
	if !strings.Contains(out, "512kbps") || !strings.Contains(out, "83.7%") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

func TestCDFSeries(t *testing.T) {
	pts := CDFSeries([]float64{1, 2, math.Inf(1), 3})
	if len(pts) != 3 {
		t.Fatalf("CDFSeries kept %d finite points, want 3", len(pts))
	}
	if pts[2].Y != 75 {
		t.Fatalf("last finite point at %v%%, want 75", pts[2].Y)
	}
}
