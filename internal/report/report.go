// Package report regenerates every figure and table of the paper's
// evaluation (§3) from scenario runs: it builds the experiment
// configurations, runs them (caching runs shared between figures), computes
// the paper's metrics, and renders ASCII plots and tables.
//
// The mapping from paper artifact to generator is:
//
//	Figure 1  -> (*Suite).Figure1   unconstrained gossip, lag CDF @99% delivery
//	Figure 2  -> (*Suite).Figure2   fanout sweep on ms-691 and uniform-691
//	Figure 3  -> (*Suite).Figure3   HEAP on ms-691, lag CDF
//	Figure 4  -> (*Suite).Figure4   bandwidth usage by class
//	Figure 5  -> (*Suite).Figure5   stream quality by class (ref-691)
//	Figure 6  -> (*Suite).Figure6   stream quality by class (ms-691, ref-724)
//	Figure 7  -> (*Suite).Figure7   jitter CDF (ref-691)
//	Figure 8  -> (*Suite).Figure8   stream lag by class
//	Figure 9  -> (*Suite).Figure9   stream lag CDFs
//	Figure 10 -> (*Suite).Figure10  catastrophic failures
//	Table 2   -> (*Suite).Table2    delivery ratio in jittered windows
//	Table 3   -> (*Suite).Table3    % of nodes with a jitter-free stream
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/churn"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// Suite runs the paper's experiments at a configurable scale and renders
// the figures. The zero value is not usable; use NewSuite.
type Suite struct {
	// Nodes, Windows and Seed scale the experiments. The paper's scale is
	// 270 nodes and 93 windows (~180 s of stream).
	Nodes   int
	Windows int
	Seed    int64
	// DegradedFraction models the 5-7% of PlanetLab nodes that deliver far
	// less than their advertised capability (§3.1). Default 0 for the main
	// reproduction: injecting it on top of the Table 1 distributions pushes
	// the CSR-1.15 scenarios past saturation (the advertised/delivered
	// trust mismatch turns degraded nodes into request sinks) — see the
	// SensitivityDegraded artifact for the controlled study.
	DegradedFraction float64
	// Out receives the rendered reports.
	Out io.Writer
	// Progress, if non-nil, receives one line per scenario run.
	Progress func(name string, elapsed time.Duration)

	cache map[string]*scenario.Result
}

// NewSuite builds a Suite writing to out. nodes/windows <= 0 select the
// paper's full scale (270 nodes, 93 windows).
func NewSuite(out io.Writer, nodes, windows int, seed int64) *Suite {
	if nodes <= 0 {
		nodes = 270
	}
	if windows <= 0 {
		windows = 93
	}
	return &Suite{
		Nodes:   nodes,
		Windows: windows,
		Seed:    seed,
		Out:     out,
		cache:   make(map[string]*scenario.Result),
	}
}

// baseConfig returns the suite's common scenario parameters.
func (s *Suite) baseConfig() scenario.Config {
	return scenario.Config{
		Nodes:       s.Nodes,
		Windows:     s.Windows,
		Seed:        s.Seed,
		Fanout:      7,
		StreamStart: 5 * time.Second,
		// A long drain lets congested-queue stragglers arrive so that
		// "offline viewing" metrics settle (the paper streams 180 s and
		// reports offline curves).
		Drain:            120 * time.Second,
		DegradedFraction: s.DegradedFraction,
	}
}

// run executes (or returns the cached result of) a named configuration.
func (s *Suite) run(name string, mutate func(*scenario.Config)) (*scenario.Result, error) {
	if res, ok := s.cache[name]; ok {
		return res, nil
	}
	cfg := s.baseConfig()
	cfg.Name = name
	mutate(&cfg)
	start := time.Now()
	res, err := scenario.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: scenario %s: %w", name, err)
	}
	if s.Progress != nil {
		s.Progress(name, time.Since(start))
	}
	s.cache[name] = res
	return res, nil
}

// protoRun runs one protocol on one distribution (the six runs shared by
// Figures 3-9 and Tables 2-3).
func (s *Suite) protoRun(proto scenario.Protocol, dist scenario.Distribution) (*scenario.Result, error) {
	name := fmt.Sprintf("%s-%s", proto, dist.Name())
	return s.run(name, func(cfg *scenario.Config) {
		cfg.Protocol = proto
		cfg.Dist = dist
	})
}

// pair runs standard gossip and HEAP on one distribution: the pair Figures
// 4-9 and Tables 2-3 compare.
func (s *Suite) pair(dist scenario.Distribution) (std, heap *scenario.Result, err error) {
	if std, err = s.protoRun(scenario.StandardGossip, dist); err != nil {
		return nil, nil, err
	}
	if heap, err = s.protoRun(scenario.HEAP, dist); err != nil {
		return nil, nil, err
	}
	return std, heap, nil
}

// lagForDist returns the playback lag the paper uses when reporting stream
// quality for a distribution: 10 s for the reference distributions, 20 s
// for the most-skewed one (Table 3).
func lagForDist(dist scenario.Distribution) time.Duration {
	if dist.Name() == scenario.MS691.Name() {
		return 20 * time.Second
	}
	return 10 * time.Second
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// lagCDFSeries computes the Figures 1-3 curve: CDF over nodes of the
// minimum lag at which the node has >= ratio of the stream.
func lagCDFSeries(res *scenario.Result, ratio float64) []metrics.Point {
	lags := res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
		return metrics.Seconds(res.Run.LagForDeliveryRatio(n, ratio))
	})
	return metrics.CDFSeries(lags)
}

func cdfOf(res *scenario.Result, f func(n *metrics.NodeRecord) float64) metrics.CDF {
	return metrics.NewCDF(res.Run.PerNode(f))
}

// Figure1 reproduces the unconstrained-gossip lag CDF.
func (s *Suite) Figure1() error {
	res, err := s.run("unconstrained-f7", func(cfg *scenario.Config) {
		cfg.Protocol = scenario.StandardGossip
		cfg.Unconstrained = true
		cfg.DegradedFraction = 0 // no upload caps at all in Fig 1
	})
	if err != nil {
		return err
	}
	cdf := cdfOf(res, func(n *metrics.NodeRecord) float64 {
		return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
	})
	plot := metrics.Plot{
		Title:  "Figure 1: unconstrained standard gossip (f=7) — nodes receiving >=99% of the stream",
		XLabel: "stream lag (s)",
		YLabel: "% of nodes (CDF)",
		XMax:   60, YMax: 100,
	}
	plot.Add("99% delivery", lagCDFSeries(res, 0.99))
	s.printf("%s\n", plot.Render())
	s.printf("P50=%.1fs P75=%.1fs P90=%.1fs (paper: 1.3s / 2.4s / 21s)\n\n",
		cdf.ValueAtPercentile(50), cdf.ValueAtPercentile(75), cdf.ValueAtPercentile(90))
	return nil
}

// Figure2 reproduces the fixed-fanout sweep under constrained bandwidth.
func (s *Suite) Figure2() error {
	plot := metrics.Plot{
		Title:  "Figure 2: constrained standard gossip — fanout sweep (dist1=ms-691, dist2=uniform-691)",
		XLabel: "stream lag (s)",
		YLabel: "% of nodes (CDF)",
		XMax:   60, YMax: 100,
	}
	type curve struct {
		fanout float64
		dist   scenario.Distribution
	}
	curves := []curve{
		{7, scenario.MS691}, {15, scenario.MS691}, {20, scenario.MS691},
		{25, scenario.MS691}, {30, scenario.MS691},
		{7, scenario.Uniform691}, {15, scenario.Uniform691}, {20, scenario.Uniform691},
	}
	summary := &metrics.Table{Headers: []string{"curve", "P50 lag (s)", "P75 lag (s)",
		"% never @99%", "median % of stream within 60s"}}
	for _, c := range curves {
		name := fmt.Sprintf("std-%s-f%g", c.dist.Name(), c.fanout)
		res, err := s.run(name, func(cfg *scenario.Config) {
			cfg.Protocol = scenario.StandardGossip
			cfg.Dist = c.dist
			cfg.Fanout = c.fanout
		})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("f=%g %s", c.fanout, c.dist.Name())
		plot.Add(label, lagCDFSeries(res, 0.99))
		cdf := cdfOf(res, func(n *metrics.NodeRecord) float64 {
			return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
		})
		never := 100 * (1 - cdf.FractionAtOrBelow(1e12))
		// Supplementary: how much of the stream arrives within the paper's
		// 60 s axis — makes the fanout ordering visible on distributions
		// where no fanout reaches the 99% threshold.
		at60 := cdfOf(res, func(n *metrics.NodeRecord) float64 {
			return 100 * deliveredWithin(res, n, 60*time.Second)
		})
		summary.AddRow(label,
			fmt.Sprintf("%.1f", cdf.ValueAtPercentile(50)),
			fmt.Sprintf("%.1f", cdf.ValueAtPercentile(75)),
			fmt.Sprintf("%.0f%%", never),
			fmt.Sprintf("%.0f%%", at60.ValueAtPercentile(50)))
	}
	s.printf("%s\n%s\n", plot.Render(), summary.Render())
	return nil
}

// deliveredWithin returns the fraction of source packets the node received
// with lag <= horizon.
func deliveredWithin(res *scenario.Result, n *metrics.NodeRecord, horizon time.Duration) float64 {
	g := res.Config.Geometry
	total, got := 0, 0
	for id := range n.Recv {
		if g.IsParity(wire.PacketID(id)) {
			continue
		}
		total++
		if lag := res.Run.Lag(n, id); lag != metrics.Never && lag <= horizon {
			got++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(got) / float64(total)
}

// Figure3 reproduces HEAP's lag CDF on the skewed distribution.
func (s *Suite) Figure3() error {
	res, err := s.protoRun(scenario.HEAP, scenario.MS691)
	if err != nil {
		return err
	}
	cdf := cdfOf(res, func(n *metrics.NodeRecord) float64 {
		return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
	})
	plot := metrics.Plot{
		Title:  "Figure 3: HEAP on ms-691 (avg fanout 7) — nodes receiving >=99% of the stream",
		XLabel: "stream lag (s)",
		YLabel: "% of nodes (CDF)",
		XMax:   60, YMax: 100,
	}
	plot.Add("99% delivery", lagCDFSeries(res, 0.99))
	s.printf("%s\n", plot.Render())
	s.printf("P50=%.1fs P75=%.1fs P90=%.1fs (paper: 13.3s / 14.1s / 19.5s)\n\n",
		cdf.ValueAtPercentile(50), cdf.ValueAtPercentile(75), cdf.ValueAtPercentile(90))
	return nil
}

// usageByClass computes the Figure 4 quantity: mean upload utilization per
// capability class (excluding the source).
func usageByClass(res *scenario.Result) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for i := 1; i < len(res.CapsKbps); i++ {
		cl := res.Config.Dist.ClassOf(res.CapsKbps[i])
		sums[cl] += res.Usage[i]
		counts[cl]++
	}
	out := map[string]float64{}
	for cl, sum := range sums {
		out[cl] = sum / float64(counts[cl])
	}
	return out
}

// Figure4 reproduces the bandwidth-usage breakdown.
func (s *Suite) Figure4() error {
	paper := map[string]map[string]string{
		"ref-691": {"256kbps std": "88.77%", "768kbps std": "76.42%", "2Mbps std": "55.76%",
			"256kbps heap": "68.07%", "768kbps heap": "73.07%", "2Mbps heap": "72.05%"},
		"ms-691": {"512kbps std": "88.34%", "1Mbps std": "79.70%", "3Mbps std": "40.80%",
			"512kbps heap": "79.02%", "1Mbps heap": "74.71%", "3Mbps heap": "71.13%"},
	}
	for _, dist := range []scenario.Distribution{scenario.Ref691, scenario.MS691} {
		stdRes, heapRes, err := s.pair(dist)
		if err != nil {
			return err
		}
		stdUse, heapUse := usageByClass(stdRes), usageByClass(heapRes)
		tbl := &metrics.Table{Headers: []string{"class", "standard", "HEAP", "paper std", "paper HEAP"}}
		for _, cl := range stdRes.Run.Classes() {
			tbl.AddRow(cl,
				fmt.Sprintf("%.1f%%", 100*stdUse[cl]),
				fmt.Sprintf("%.1f%%", 100*heapUse[cl]),
				paper[dist.Name()][cl+" std"],
				paper[dist.Name()][cl+" heap"])
		}
		s.printf("Figure 4 (%s): average bandwidth usage by class\n%s\n", dist.Name(), tbl.Render())
	}
	return nil
}

// qualityByClass renders a Figures 5/6 panel.
func (s *Suite) qualityByClass(title string, dist scenario.Distribution, lag time.Duration) error {
	stdRes, heapRes, err := s.pair(dist)
	if err != nil {
		return err
	}
	jfShare := func(res *scenario.Result) map[string]float64 {
		return res.Run.ClassMeans(func(n *metrics.NodeRecord) float64 {
			return res.Run.JitterFreeShare(n, lag)
		})
	}
	stdJF, heapJF := jfShare(stdRes), jfShare(heapRes)
	tbl := &metrics.Table{Headers: []string{"class", "standard", "HEAP"}}
	for _, cl := range stdRes.Run.Classes() {
		tbl.AddRow(cl,
			fmt.Sprintf("%.1f%%", 100*stdJF[cl]),
			fmt.Sprintf("%.1f%%", 100*heapJF[cl]))
	}
	s.printf("%s (lag %s): jitter-free %% of the stream by class\n%s\n", title, lag, tbl.Render())
	return nil
}

// Figure5 reproduces stream quality by class on ref-691.
func (s *Suite) Figure5() error {
	return s.qualityByClass("Figure 5 (ref-691)", scenario.Ref691, 10*time.Second)
}

// Figure6 reproduces stream quality by class on ms-691 and ref-724.
func (s *Suite) Figure6() error {
	if err := s.qualityByClass("Figure 6a (ms-691)", scenario.MS691, 20*time.Second); err != nil {
		return err
	}
	return s.qualityByClass("Figure 6b (ref-724)", scenario.Ref724, 10*time.Second)
}

// Figure7 reproduces the jitter CDF on ref-691.
func (s *Suite) Figure7() error {
	stdRes, heapRes, err := s.pair(scenario.Ref691)
	if err != nil {
		return err
	}
	plot := metrics.Plot{
		Title:  "Figure 7: cumulative distribution of experienced jitter (ref-691)",
		XLabel: "% of windows jittered",
		YLabel: "% of nodes (CDF)",
		XMax:   100, YMax: 100,
	}
	addCurve := func(label string, res *scenario.Result, lag time.Duration) {
		vals := res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
			return 100 * (1 - res.Run.JitterFreeShare(n, lag))
		})
		plot.Add(label, metrics.CDFSeries(vals))
	}
	addCurve("std 10s lag", stdRes, 10*time.Second)
	addCurve("std offline", stdRes, metrics.Never)
	addCurve("HEAP 10s lag", heapRes, 10*time.Second)
	addCurve("HEAP offline", heapRes, metrics.Never)
	s.printf("%s\n", plot.Render())
	heapAt10 := metrics.NewCDF(heapRes.Run.PerNode(func(n *metrics.NodeRecord) float64 {
		return 100 * (1 - heapRes.Run.JitterFreeShare(n, 10*time.Second))
	}))
	s.printf("HEAP @10s lag: %.0f%% of nodes experience <=10%% jitter (paper: 93%%)\n\n",
		100*heapAt10.FractionAtOrBelow(10))
	return nil
}

// Figure8 reproduces the average min-lag to a jitter-free stream by class.
func (s *Suite) Figure8() error {
	for _, dist := range []scenario.Distribution{scenario.Ref691, scenario.MS691} {
		stdRes, heapRes, err := s.pair(dist)
		if err != nil {
			return err
		}
		tbl := &metrics.Table{Headers: []string{"class",
			"standard mean lag (s)", "std never", "HEAP mean lag (s)", "HEAP never"}}
		for _, cl := range stdRes.Run.Classes() {
			stdLags := stdRes.Run.PerClass(func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(stdRes.Run.MinLagForJitterFree(n, 0))
			})[cl]
			heapLags := heapRes.Run.PerClass(func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(heapRes.Run.MinLagForJitterFree(n, 0))
			})[cl]
			tbl.AddRow(cl,
				fmt.Sprintf("%.1f", metrics.Mean(stdLags)),
				fmt.Sprintf("%d/%d", metrics.CountInf(stdLags), len(stdLags)),
				fmt.Sprintf("%.1f", metrics.Mean(heapLags)),
				fmt.Sprintf("%d/%d", metrics.CountInf(heapLags), len(heapLags)))
		}
		s.printf("Figure 8 (%s): average stream lag to obtain a jitter-free stream\n%s\n", dist.Name(), tbl.Render())
	}
	return nil
}

// Figure9 reproduces the min-lag CDFs.
func (s *Suite) Figure9() error {
	for _, dist := range []scenario.Distribution{scenario.Ref691, scenario.MS691} {
		stdRes, heapRes, err := s.pair(dist)
		if err != nil {
			return err
		}
		plot := metrics.Plot{
			Title:  fmt.Sprintf("Figure 9 (%s): cumulative distribution of stream lag", dist.Name()),
			XLabel: "stream lag (s)",
			YLabel: "% of nodes (CDF)",
			XMax:   60, YMax: 100,
		}
		add := func(label string, res *scenario.Result, maxJitter float64) {
			vals := res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(res.Run.MinLagForJitterFree(n, maxJitter))
			})
			plot.Add(label, metrics.CDFSeries(vals))
		}
		add("std no jitter", stdRes, 0)
		add("std max 1% jitter", stdRes, 0.01)
		add("HEAP no jitter", heapRes, 0)
		add("HEAP max 1% jitter", heapRes, 0.01)
		s.printf("%s\n", plot.Render())
		if dist.Name() == scenario.Ref691.Name() {
			stdCDF := cdfOf(stdRes, func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(stdRes.Run.MinLagForJitterFree(n, 0))
			})
			heapCDF := cdfOf(heapRes, func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(heapRes.Run.MinLagForJitterFree(n, 0))
			})
			s.printf("lag to reach 80%% of nodes jitter-free: std=%.1fs HEAP=%.1fs (paper: 26.6s vs 12s)\n\n",
				stdCDF.ValueAtPercentile(80), heapCDF.ValueAtPercentile(80))
		}
	}
	return nil
}

// Figure10 reproduces the catastrophic-failure experiments.
func (s *Suite) Figure10() error {
	for _, fraction := range []float64{0.2, 0.5} {
		type curveSpec struct {
			proto scenario.Protocol
			lag   time.Duration
		}
		curves := []curveSpec{
			{scenario.HEAP, 12 * time.Second},
			{scenario.StandardGossip, 20 * time.Second},
			{scenario.StandardGossip, 30 * time.Second},
		}
		plot := metrics.Plot{
			Title: fmt.Sprintf("Figure 10: failure of %.0f%% of the nodes at t=60s (ref-691)",
				fraction*100),
			XLabel: "stream time (s)",
			YLabel: "% of nodes decoding each window",
			YMax:   100,
		}
		for _, c := range curves {
			name := fmt.Sprintf("churn%.0f-%s", fraction*100, c.proto)
			res, err := s.run(name, func(cfg *scenario.Config) {
				cfg.Protocol = c.proto
				cfg.Dist = scenario.Ref691
				cfg.Churn = &churn.Catastrophic{
					At:         cfg.StreamStart + 60*time.Second,
					Fraction:   fraction,
					NotifyMean: 10 * time.Second,
				}
			})
			if err != nil {
				return err
			}
			cov := res.Run.PerWindowCoverage(c.lag)
			wd := res.Config.Geometry.WindowDuration().Seconds()
			pts := make([]metrics.Point, len(cov))
			for w, v := range cov {
				pts[w] = metrics.Point{X: float64(w) * wd, Y: 100 * v}
			}
			plot.Add(fmt.Sprintf("%s - %ds lag", c.proto, int(c.lag.Seconds())), pts)
		}
		s.printf("%s\n", plot.Render())
	}
	return nil
}

// Table2 reproduces the average delivery ratio inside jittered windows.
func (s *Suite) Table2() error {
	s.printf("Table 2: average delivery ratio in windows that cannot be fully decoded\n")
	for _, dist := range []scenario.Distribution{scenario.Ref691, scenario.Ref724, scenario.MS691} {
		lag := lagForDist(dist)
		stdRes, heapRes, err := s.pair(dist)
		if err != nil {
			return err
		}
		tbl := &metrics.Table{Headers: []string{"class", "standard", "HEAP"}}
		for _, cl := range stdRes.Run.Classes() {
			tbl.AddRow(cl,
				jitteredRatioCell(stdRes, cl, lag),
				jitteredRatioCell(heapRes, cl, lag))
		}
		s.printf("%s (lag %s)\n%s\n", dist.Name(), lag, tbl.Render())
	}
	return nil
}

func jitteredRatioCell(res *scenario.Result, class string, lag time.Duration) string {
	var sum float64
	var n int
	for i := range res.Run.Nodes {
		node := &res.Run.Nodes[i]
		if node.Excluded || node.Crashed || node.Class != class {
			continue
		}
		if ratio, any := res.Run.DeliveryRatioInJitteredWindows(node, lag); any {
			sum += ratio
			n++
		}
	}
	if n == 0 {
		return "no jittered windows"
	}
	return fmt.Sprintf("%.1f%% (n=%d)", 100*sum/float64(n), n)
}

// Table3 reproduces the percentage of nodes receiving a fully jitter-free
// stream per class.
func (s *Suite) Table3() error {
	s.printf("Table 3: %% of nodes receiving a jitter-free stream by class\n")
	for _, dist := range []scenario.Distribution{scenario.Ref691, scenario.Ref724, scenario.MS691} {
		lag := lagForDist(dist)
		stdRes, heapRes, err := s.pair(dist)
		if err != nil {
			return err
		}
		share := func(res *scenario.Result, class string) float64 {
			var ok, n int
			for i := range res.Run.Nodes {
				node := &res.Run.Nodes[i]
				if node.Excluded || node.Crashed || node.Class != class {
					continue
				}
				n++
				if res.Run.JitterFreeShare(node, lag) >= 1 {
					ok++
				}
			}
			if n == 0 {
				return 0
			}
			return 100 * float64(ok) / float64(n)
		}
		tbl := &metrics.Table{Headers: []string{"class", "standard", "HEAP"}}
		for _, cl := range stdRes.Run.Classes() {
			tbl.AddRow(cl,
				fmt.Sprintf("%.1f%%", share(stdRes, cl)),
				fmt.Sprintf("%.1f%%", share(heapRes, cl)))
		}
		s.printf("%s (lag %s)\n%s\n", dist.Name(), lag, tbl.Render())
	}
	return nil
}

// SensitivityDegraded goes beyond the paper: it sweeps the fraction of
// nodes that silently deliver only half their advertised capability and
// shows the knife-edge at CSR 1.15 — HEAP trusts advertised capabilities,
// so under-delivering nodes become request sinks and a few percent of them
// absorb the whole capability margin.
func (s *Suite) SensitivityDegraded() error {
	tbl := &metrics.Table{Headers: []string{"degraded nodes",
		"HEAP jitter-free@10s", "HEAP never-jitter-free nodes"}}
	for _, frac := range []float64{0, 0.03, 0.06} {
		name := fmt.Sprintf("heap-ms-691-degraded%.0f", frac*100)
		res, err := s.run(name, func(cfg *scenario.Config) {
			cfg.Protocol = scenario.HEAP
			cfg.Dist = scenario.MS691
			cfg.DegradedFraction = frac
		})
		if err != nil {
			return err
		}
		jf := metrics.Mean(res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
			return res.Run.JitterFreeShare(n, 10*time.Second)
		}))
		lags := res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
			return metrics.Seconds(res.Run.MinLagForJitterFree(n, 0))
		})
		tbl.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprintf("%.1f%%", 100*jf),
			fmt.Sprintf("%d/%d", metrics.CountInf(lags), len(lags)))
	}
	s.printf("Sensitivity (beyond the paper): nodes delivering half their advertised capability (ms-691, HEAP)\n%s\n", tbl.Render())
	return nil
}

// Robustness goes beyond the paper: §3.6 stresses node failure while the
// network stays nearly ideal; this table stresses the *network* instead.
// Both protocols run on ms-691 under every stock adverse profile — bursty
// (Gilbert-Elliott) loss, a partition with heal, latency spikes, asymmetric
// degradation, capability traces, and the mixed profile — and the table
// compares the delivery-at-99% lag and
// the share of nodes that never get there, plus the netem engine's own
// drop/delay accounting for the HEAP run. HEAP's advantage on skewed
// capability distributions should persist, and for the capability-trace
// profile *grow*: adaptive fanout is exactly the machinery that reroutes
// load when capabilities drift mid-run.
func (s *Suite) Robustness() error {
	profiles := append([]string{"none"}, netem.ProfileNames()...)
	tbl := &metrics.Table{Headers: []string{"profile",
		"std P50/P90 lag (s)", "std never@99%",
		"HEAP P50/P90 lag (s)", "HEAP never@99%"}}
	var activity []string
	for _, profile := range profiles {
		robustRun := func(proto scenario.Protocol) (*scenario.Result, error) {
			if profile == "none" {
				return s.protoRun(proto, scenario.MS691) // shared with Figs 3-9
			}
			return s.run(fmt.Sprintf("robust-%s-%s", profile, proto), func(cfg *scenario.Config) {
				cfg.Protocol = proto
				cfg.Dist = scenario.MS691
				p, err := netem.Profile(profile)
				if err != nil {
					panic(err) // the profile list above is static
				}
				cfg.Netem = &p
			})
		}
		stdRes, err := robustRun(scenario.StandardGossip)
		if err != nil {
			return err
		}
		heapRes, err := robustRun(scenario.HEAP)
		if err != nil {
			return err
		}
		// A percentile landing among never-delivered nodes renders as
		// "never", not "+Inf" (guaranteed for the partition profile's P90:
		// the cut-off quarter never recovers the packets aired behind the
		// split).
		fmtLag := func(v float64) string {
			if v > 1e12 {
				return "never"
			}
			return fmt.Sprintf("%.1f", v)
		}
		row := func(res *scenario.Result) (lags, never string) {
			cdf := cdfOf(res, func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
			})
			return fmtLag(cdf.ValueAtPercentile(50)) + " / " + fmtLag(cdf.ValueAtPercentile(90)),
				fmt.Sprintf("%.0f%%", 100*(1-cdf.FractionAtOrBelow(1e12)))
		}
		stdLags, stdNever := row(stdRes)
		heapLags, heapNever := row(heapRes)
		tbl.AddRow(profile, stdLags, stdNever, heapLags, heapNever)
		if sum := scenario.NetemSummary(heapRes.NetemStats); sum != "" {
			activity = append(activity, fmt.Sprintf("  %-10s %s", profile, sum))
		}
	}
	s.printf("Robustness (beyond the paper): HEAP vs standard gossip under adverse networks (ms-691)\n%s\n", tbl.Render())
	s.printf("netem activity of the HEAP runs:\n%s\n\n", strings.Join(activity, "\n"))
	return nil
}

// DiagBacklog renders the uplink-backlog time series on ms-691 for both
// protocols — the §3.6 "upload queues tend to grow larger" symptom made
// directly visible (this diagnostic goes beyond the paper's figures).
func (s *Suite) DiagBacklog() error {
	plot := metrics.Plot{
		Title:  "Diagnostic: mean uplink backlog of the 512kbps class (ms-691)",
		XLabel: "time (s)",
		YLabel: "queued seconds",
	}
	for _, proto := range []scenario.Protocol{scenario.StandardGossip, scenario.HEAP} {
		name := fmt.Sprintf("backlog-%s-ms691", proto)
		res, err := s.run(name, func(cfg *scenario.Config) {
			cfg.Protocol = proto
			cfg.Dist = scenario.MS691
			cfg.BacklogProbePeriod = 5 * time.Second
		})
		if err != nil {
			return err
		}
		pts := make([]metrics.Point, 0, len(res.BacklogSamples))
		for _, sample := range res.BacklogSamples {
			pts = append(pts, metrics.Point{
				X: sample.At.Seconds(),
				Y: sample.MeanByClass["512kbps"],
			})
		}
		plot.Add(string(proto), pts)
	}
	s.printf("%s\n", plot.Render())
	return nil
}

// IntroTree reproduces the introduction's motivating observation: a static
// k-ary tree without reconstruction fails "even among 30 nodes" where plain
// gossip succeeds.
func (s *Suite) IntroTree() error {
	tbl := &metrics.Table{Headers: []string{"protocol",
		"jitter-free windows @10s", "median % of stream within 60s"}}
	for _, proto := range []scenario.Protocol{scenario.StaticTree, scenario.StandardGossip} {
		name := fmt.Sprintf("intro-%s-30", proto)
		res, err := s.run(name, func(cfg *scenario.Config) {
			cfg.Protocol = proto
			cfg.Nodes = 30
			cfg.Dist = scenario.MS691
			cfg.LossRate = 0.01
			cfg.TreeDegree = 3
		})
		if err != nil {
			return err
		}
		jf := metrics.Mean(res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
			return res.Run.JitterFreeShare(n, 10*time.Second)
		}))
		at60 := cdfOf(res, func(n *metrics.NodeRecord) float64 {
			return 100 * deliveredWithin(res, n, 60*time.Second)
		})
		tbl.AddRow(string(proto),
			fmt.Sprintf("%.1f%%", 100*jf),
			fmt.Sprintf("%.0f%%", at60.ValueAtPercentile(50)))
	}
	s.printf("Introduction: static tree vs gossip among 30 nodes (ms-691 capabilities, 1%% loss)\n%s\n", tbl.Render())
	return nil
}

// MultiSource goes beyond the paper: K simultaneous broadcasters share one
// membership view, one aggregation layer, and every node's upload budget —
// the ROADMAP's "multi-source streams" regime, where HEAP's bandwidth
// accounting gets genuinely hard. Two grids run on ms-691: 2 sources
// (aggregate rate ~1.7x the mean capability) and 4 sources (~3.5x). Each
// table row is one stream's lag/delivery summary; the budget line shows the
// fanout allocator holding every node's aggregate send rate within its
// capability (max utilization < 100%, bounded uplink backlog) while
// degrading all streams uniformly.
func (s *Suite) MultiSource() error {
	// Multi-source contention multiplies traffic per window; cap the stream
	// length so the 4-source grid stays tractable at full suite scale.
	windows := s.Windows
	if windows > 24 {
		windows = 24
	}
	for _, k := range []int{2, 4} {
		specs := make([]scenario.StreamSpec, k)
		for i := range specs {
			specs[i].Start = 5*time.Second + time.Duration(i)*time.Second
		}
		name := fmt.Sprintf("multisource-%d-ms691", k)
		res, err := s.run(name, func(cfg *scenario.Config) {
			cfg.Protocol = scenario.HEAP
			cfg.Dist = scenario.MS691
			cfg.Windows = windows
			cfg.Streams = specs
			cfg.BacklogProbePeriod = 2 * time.Second
		})
		if err != nil {
			return err
		}
		tbl := &metrics.Table{Headers: []string{"stream", "source", "start",
			"P50/P90 lag (s)", "never@99%", "delivered", "jitter-free@20s"}}
		fmtLag := func(v float64) string {
			if v > 1e12 {
				return "never"
			}
			return fmt.Sprintf("%.1f", v)
		}
		for _, sum := range res.StreamSummaries(20 * time.Second) {
			tbl.AddRow(
				fmt.Sprintf("%d", sum.Spec.ID),
				fmt.Sprintf("node %d", sum.Spec.Source),
				sum.Spec.Start.String(),
				fmtLag(sum.LagP50)+" / "+fmtLag(sum.LagP90),
				fmt.Sprintf("%.0f%%", 100*sum.NeverFrac),
				fmt.Sprintf("%.1f%%", 100*sum.DeliveryMean),
				fmt.Sprintf("%.1f%%", 100*sum.JFMean))
		}
		maxUsage, maxBacklog := 0.0, 0.0
		for _, u := range res.Usage {
			if u > maxUsage {
				maxUsage = u
			}
		}
		for _, b := range res.BacklogSamples {
			if b.Max > maxBacklog {
				maxBacklog = b.Max
			}
		}
		s.printf("Multi-source (beyond the paper): %d concurrent broadcasters on ms-691, HEAP, %d windows each\n%s"+
			"budget: max upload utilization %.0f%%, max uplink backlog %.1fs — aggregate sends within every UploadKbps\n\n",
			k, windows, tbl.Render(), 100*maxUsage, maxBacklog)
	}
	return nil
}

// Adaptation goes beyond the paper: it closes the loop the capability traces
// only script. Two A/B studies run with and without the adapt controller
// (Scenario.Adapt, internal/adapt), identical seeds and configs otherwise:
//
//   - captrace-silent: 30% of the nodes lose 65% of their real capacity
//     mid-run while *still advertising full capability*. Without adaptation
//     HEAP keeps trusting the stale claims and the traced nodes' queues
//     absorb the mismatch; with adaptation each controller measures its own
//     achieved throughput, re-advertises the deficit within seconds, and
//     probes back up after the trace heals.
//   - sens-degraded: the SensitivityDegraded knife-edge (nodes silently
//     delivering half their advertised capability on ms-691) rerun with the
//     controller on — degraded nodes shed fanout before their queues shed
//     packets, so the degraded cohort's backlog stays bounded and stream
//     quality holds.
//
// Each run reports the degraded/overall uplink backlog (BacklogProbePeriod
// samples), stream quality, and the controller's own accounting
// (re-advertisement count, effective/configured capability ratio).
func (s *Suite) Adaptation() error {
	adaptOn := &adapt.Config{}
	fmtLag := func(v float64) string {
		if v > 1e12 {
			return "never"
		}
		return fmt.Sprintf("%.1f", v)
	}
	maxBacklog := func(res *scenario.Result, class string) float64 {
		worst := 0.0
		for _, sample := range res.BacklogSamples {
			b := sample.Max
			if class != "" {
				b = sample.MeanByClass[class]
			}
			if b > worst {
				worst = b
			}
		}
		return worst
	}
	adaptCells := func(res *scenario.Result) (readv, ratio string) {
		if res.AdaptStats == nil {
			return "-", "-"
		}
		cdf := res.AdaptStats.CapRatioCDF()
		return fmt.Sprintf("%d", res.AdaptStats.Readvertisements),
			fmt.Sprintf("%.2f / %.2f", cdf.ValueAtPercentile(10), cdf.ValueAtPercentile(50))
	}

	// Part 1: the silent capability trace, adaptation off vs on.
	trace := &metrics.Table{Headers: []string{"adaptation", "P50/P90 lag (s)",
		"never@99%", "jitter-free@20s", "max backlog (s)", "re-adv", "eff/conf P10/P50"}}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		res, err := s.run("adapt-captrace-"+mode.name, func(cfg *scenario.Config) {
			cfg.Protocol = scenario.HEAP
			cfg.Dist = scenario.MS691
			p, err := netem.Profile("captrace-silent")
			if err != nil {
				panic(err) // static profile name
			}
			cfg.Netem = &p
			cfg.BacklogProbePeriod = 2 * time.Second
			if mode.on {
				cfg.Adapt = adaptOn
			}
		})
		if err != nil {
			return err
		}
		cdf := cdfOf(res, func(n *metrics.NodeRecord) float64 {
			return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
		})
		jf := metrics.Mean(res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
			return res.Run.JitterFreeShare(n, 20*time.Second)
		}))
		readv, ratio := adaptCells(res)
		trace.AddRow(mode.name,
			fmtLag(cdf.ValueAtPercentile(50))+" / "+fmtLag(cdf.ValueAtPercentile(90)),
			fmt.Sprintf("%.0f%%", 100*(1-cdf.FractionAtOrBelow(1e12))),
			fmt.Sprintf("%.1f%%", 100*jf),
			fmt.Sprintf("%.1f", maxBacklog(res, "")),
			readv, ratio)
	}
	s.printf("Adaptation (beyond the paper): silent capability trace (30%% of nodes at 35%% real capacity, t=10-30s, ms-691, HEAP)\n%s\n", trace.Render())

	// Part 2: the degraded-node knife-edge, adaptation off vs on. The 12%
	// row is where the trust mismatch visibly collapses stream quality at
	// this seed; 3-6% match the SensitivityDegraded artifact's sweep.
	deg := &metrics.Table{Headers: []string{"degraded nodes", "adaptation",
		"jitter-free@10s", "P50/P90 lag (s)", "degraded max backlog (s)", "re-adv"}}
	for _, frac := range []float64{0, 0.03, 0.06, 0.12} {
		for _, mode := range []struct {
			name string
			on   bool
		}{{"off", false}, {"on", true}} {
			name := fmt.Sprintf("adapt-degraded%.0f-%s", frac*100, mode.name)
			res, err := s.run(name, func(cfg *scenario.Config) {
				cfg.Protocol = scenario.HEAP
				cfg.Dist = scenario.MS691
				cfg.DegradedFraction = frac
				cfg.BacklogProbePeriod = 2 * time.Second
				if mode.on {
					cfg.Adapt = adaptOn
				}
			})
			if err != nil {
				return err
			}
			jf := metrics.Mean(res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
				return res.Run.JitterFreeShare(n, 10*time.Second)
			}))
			cdf := cdfOf(res, func(n *metrics.NodeRecord) float64 {
				return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
			})
			readv, _ := adaptCells(res)
			backlogCell := "-"
			if frac > 0 {
				backlogCell = fmt.Sprintf("%.1f", maxBacklog(res, "degraded"))
			}
			deg.AddRow(fmt.Sprintf("%.0f%%", frac*100), mode.name,
				fmt.Sprintf("%.1f%%", 100*jf),
				fmtLag(cdf.ValueAtPercentile(50))+" / "+fmtLag(cdf.ValueAtPercentile(90)),
				backlogCell, readv)
		}
	}
	s.printf("Adaptation vs the degraded-node knife-edge (nodes delivering half their advertised capability, ms-691, HEAP)\n%s\n", deg.Render())
	return nil
}

// artifacts maps each artifact name to its generator, in paper order.
var artifacts = []struct {
	name string
	gen  func(*Suite) error
}{
	{"intro-tree", (*Suite).IntroTree},
	{"fig1", (*Suite).Figure1},
	{"fig2", (*Suite).Figure2},
	{"fig3", (*Suite).Figure3},
	{"fig4", (*Suite).Figure4},
	{"fig5", (*Suite).Figure5},
	{"fig6", (*Suite).Figure6},
	{"fig7", (*Suite).Figure7},
	{"fig8", (*Suite).Figure8},
	{"fig9", (*Suite).Figure9},
	{"fig10", (*Suite).Figure10},
	{"table2", (*Suite).Table2},
	{"table3", (*Suite).Table3},
	{"sens-degraded", (*Suite).SensitivityDegraded},
	{"diag-backlog", (*Suite).DiagBacklog},
	{"robustness", (*Suite).Robustness},
	{"multisource", (*Suite).MultiSource},
	{"adapt", (*Suite).Adaptation},
	{"adversary", (*Suite).Adversary},
	{"trace", (*Suite).Trace},
	{"topology", (*Suite).Topology},
}

// Artifacts lists the generatable artifact names in paper order.
func Artifacts() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}

// Generate renders one artifact by name (any of Artifacts, in any case).
func (s *Suite) Generate(name string) error {
	for _, a := range artifacts {
		if strings.EqualFold(a.name, name) {
			return a.gen(s)
		}
	}
	return fmt.Errorf("report: unknown artifact %q (known: %s)",
		name, strings.Join(Artifacts(), ", "))
}

// GenerateAll renders every artifact in paper order.
func (s *Suite) GenerateAll() error {
	for _, a := range artifacts {
		if err := a.gen(s); err != nil {
			return err
		}
	}
	return nil
}

// CachedRuns lists the scenario names executed so far, sorted.
func (s *Suite) CachedRuns() []string {
	out := make([]string, 0, len(s.cache))
	for name := range s.cache {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
