package scenario

// The simulator benchmarks: the §5 ablations (EXPERIMENTS.md cites them as
// the only way to regenerate those numbers), the sweep engine's
// parallel-vs-serial pair, the LargeScale dynamics and multi-stream cells,
// and the XL (100k / 1M node) runs. Everything else the paper evaluates is
// rendered by cmd/heapbench (internal/report) and measured by benchmark/
// (see BENCHMARK.json); neither shares code with this file.
//
// The small cells run at a reduced scale (120 nodes, ~19 s of stream vs. the
// paper's 270 nodes and 180 s). Each benchmark runs the complete simulated
// experiment once per iteration and reports its domain quantity via
// b.ReportMetric. Pass -short to skip the XL cells.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

const (
	benchNodes   = 120
	benchWindows = 10
	benchSeed    = 17
)

func benchConfig(proto Protocol, dist Distribution) Config {
	return Config{
		Nodes:       benchNodes,
		Protocol:    proto,
		Dist:        dist,
		Windows:     benchWindows,
		Seed:        benchSeed,
		StreamStart: 5 * time.Second,
		Drain:       30 * time.Second,
	}
}

func mustRun(b *testing.B, cfg Config) *Result {
	b.Helper()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// meanJitterFree is the average fraction of viewable windows at the lag.
func meanJitterFree(res *Result, lag time.Duration) float64 {
	return metrics.Mean(res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
		return res.Run.JitterFreeShare(n, lag)
	}))
}

// lagP is the p-th percentile over nodes of the min lag for 99% delivery.
func lagP(res *Result, p float64) float64 {
	cdf := metrics.NewCDF(res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
		return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
	}))
	return cdf.ValueAtPercentile(p)
}

// --- Ablations (the §5 design choices; see EXPERIMENTS.md) ---

// BenchmarkAblationRetransmission compares retransmission policies: off,
// the paper-literal same-proposer policy, and alternate-proposer cycling.
func BenchmarkAblationRetransmission(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"off", func(c *Config) { c.RetMaxAttempts = 1 }},
		{"same-proposer", func(c *Config) { c.RetSameProposer = true }},
		{"alternates", func(c *Config) {}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(HEAP, MS691)
				tc.mutate(&cfg)
				res := mustRun(b, cfg)
				b.ReportMetric(100*meanJitterFree(res, 10*time.Second), "jitterfree@10s-%")
			}
		})
	}
}

// BenchmarkAblationSourceBias measures the §5 idea of biasing the source's
// first hop toward rich nodes.
func BenchmarkAblationSourceBias(b *testing.B) {
	for _, bias := range []bool{false, true} {
		name := "uniform"
		if bias {
			name = "rich-biased"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(HEAP, MS691)
				cfg.SourceBias = bias
				res := mustRun(b, cfg)
				b.ReportMetric(lagP(res, 50), "p50-lag-s")
			}
		})
	}
}

// BenchmarkAblationPeriodAdaptation compares HEAP's fanout knob against the
// §5 period knob.
func BenchmarkAblationPeriodAdaptation(b *testing.B) {
	for _, period := range []bool{false, true} {
		name := "fanout-knob"
		if period {
			name = "period-knob"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(HEAP, MS691)
				cfg.AdaptPeriod = period
				res := mustRun(b, cfg)
				b.ReportMetric(100*meanJitterFree(res, 10*time.Second), "jitterfree@10s-%")
			}
		})
	}
}

// BenchmarkAblationAggregation varies the aggregation gossip parameters and
// reports the accuracy of the resulting bbar estimates.
func BenchmarkAblationAggregation(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"paper-200ms-k10", func(c *Config) {}},
		{"slow-1s", func(c *Config) { c.AggPeriod = time.Second }},
		{"k3", func(c *Config) { c.AggFreshestK = 3 }},
		{"fanout3", func(c *Config) { c.AggFanout = 3 }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(HEAP, MS691)
				tc.mutate(&cfg)
				res := mustRun(b, cfg)
				truth := MS691.MeanKbps()
				var errSum float64
				var n int
				for j := 1; j < len(res.EstimatesKbps); j++ {
					if res.EstimatesKbps[j] > 0 {
						errSum += math.Abs(res.EstimatesKbps[j]-truth) / truth
						n++
					}
				}
				b.ReportMetric(100*errSum/float64(n), "bbar-err-%")
				b.ReportMetric(100*meanJitterFree(res, 10*time.Second), "jitterfree@10s-%")
			}
		})
	}
}

// BenchmarkAblationFreeriders measures dissemination quality as more nodes
// under-advertise their capability (§5 freeriding threat).
func BenchmarkAblationFreeriders(b *testing.B) {
	for _, frac := range []float64{0, 0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("%d%%", int(frac*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(HEAP, MS691)
				cfg.FreeriderFraction = frac
				res := mustRun(b, cfg)
				b.ReportMetric(100*meanJitterFree(res, 10*time.Second), "jitterfree@10s-%")
			}
		})
	}
}

// BenchmarkAblationPSS compares full-membership sampling against the Cyclon
// peer-sampling service.
func BenchmarkAblationPSS(b *testing.B) {
	for _, pss := range []bool{false, true} {
		name := "full-view"
		if pss {
			name = "cyclon-pss"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(HEAP, Ref691)
				cfg.UsePSS = pss
				res := mustRun(b, cfg)
				b.ReportMetric(100*meanJitterFree(res, 10*time.Second), "jitterfree@10s-%")
			}
		})
	}
}

// --- Sweep engine (parallel scenario grids) ---

// sweepBenchGrid is the 4-cell grid shared by the sweep benchmarks:
// {standard, HEAP} x {ref-691, ms-691} at the reduced benchmark scale.
func sweepBenchGrid(workers int) Sweep {
	return Sweep{
		Base: Config{
			Nodes:       benchNodes,
			Windows:     benchWindows,
			StreamStart: 5 * time.Second,
			Drain:       30 * time.Second,
		},
		Protocols: []Protocol{StandardGossip, HEAP},
		Dists:     []Distribution{Ref691, MS691},
		BaseSeed:  benchSeed,
		Workers:   workers,
		DropRuns:  true,
	}
}

// benchSweep runs the grid once per iteration and reports the HEAP/ms-691
// cell's stream quality; the value must be identical between the Parallel
// and Serial variants (deterministic seed derivation), while ns/op shows
// the wall-clock gap — on an N-core machine the parallel variant approaches
// min(N, 4)x faster.
func benchSweep(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		res, err := RunSweep(sweepBenchGrid(workers))
		if err != nil {
			b.Fatal(err)
		}
		cell := res.Find(func(k CellKey) bool {
			return k.Protocol == HEAP && k.Dist == MS691.Name()
		})
		b.ReportMetric(100*cell.Summary.JFMean, "heap-ms691-jitterfree-%")
	}
}

// BenchmarkSweepParallel runs the 4-cell grid with GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweepSerial runs the identical grid on a single worker; comparing
// its ns/op against BenchmarkSweepParallel measures the sweep engine's
// multi-core speedup, and the identical domain metric proves worker count
// does not leak into results.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// --- LargeScale family (1k+ nodes) ---

// reportEvents reports simulator throughput for the last run of the loop.
func reportEvents(b *testing.B, events int64) {
	b.ReportMetric(float64(events), "events/run")
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	}
}

// benchLargeScale1k runs one 1000-node LargeScale variant per iteration and
// reports simulator throughput at scale. The steady-state cell is the
// benchmark's sim-large workload; only the dynamics variants live here.
func benchLargeScale1k(b *testing.B, mutate func(*Config)) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		cfg := LargeScaleBase(1000, benchSeed)
		cfg.Windows = 3
		cfg.Drain = 20 * time.Second
		mutate(&cfg)
		res := mustRun(b, cfg)
		events = res.NetStats.EventsProcessed
		b.ReportMetric(float64(res.NetStats.MsgsSent), "msgs/run")
	}
	reportEvents(b, events)
}

// BenchmarkLargeScale1kFlashCrowd adds a flash crowd joining mid-stream.
func BenchmarkLargeScale1kFlashCrowd(b *testing.B) {
	benchLargeScale1k(b, func(c *Config) {
		c.JoinWaves = []JoinWave{{At: 7 * time.Second, Count: 250}}
	})
}

// BenchmarkLargeScale1kChurnBursts adds two correlated failure bursts.
func BenchmarkLargeScale1kChurnBursts(b *testing.B) {
	benchLargeScale1k(b, func(c *Config) {
		c.ChurnBursts = []ChurnBurst{
			{At: 7 * time.Second, Fraction: 0.05},
			{At: 9 * time.Second, Fraction: 0.10},
		}
	})
}

// BenchmarkMultiStream1k runs four concurrent broadcasters over 1000 HEAP
// nodes (Cyclon sampling, bimodal capabilities): the multi-source regime at
// scale, where the fanout-budget allocator divides every node's uplink
// across the competing streams. Reports simulator throughput plus the
// pooled delivery quality across all four streams.
func BenchmarkMultiStream1k(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		cfg := LargeScaleBase(1000, benchSeed)
		cfg.Windows = 2
		cfg.Drain = 20 * time.Second
		cfg.Streams = []StreamSpec{
			{},
			{Start: 6 * time.Second},
			{Start: 7 * time.Second},
			{Start: 8 * time.Second},
		}
		res := mustRun(b, cfg)
		events = res.NetStats.EventsProcessed
		b.ReportMetric(float64(res.NetStats.MsgsSent), "msgs/run")
		var delivered float64
		for _, sum := range res.StreamSummaries(20 * time.Second) {
			delivered += sum.DeliveryMean
		}
		b.ReportMetric(100*delivered/4, "delivered-%")
	}
	reportEvents(b, events)
}

// --- XL scale (sharded simulator) ---

// benchLargeScaleXL runs one LargeScaleXL configuration per iteration at
// GOMAXPROCS shards: single-window stream, capped capability tables, the
// sharded event loop. Reports ns/event — the number the sharding work is
// judged by. Skipped under -short: the cells take minutes to hours and up to
// tens of GB, which `go test -short -bench .` must never start by accident.
func benchLargeScaleXL(b *testing.B, n int) {
	if testing.Short() {
		b.Skip("XL cell; run it by name without -short")
	}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, LargeScaleXL(n, benchSeed, runtime.GOMAXPROCS(0)))
		events = res.NetStats.EventsProcessed
		b.ReportMetric(float64(res.NetStats.MsgsSent), "msgs/run")
	}
	reportEvents(b, events)
}

// BenchmarkLargeScale100k is the 100,000-node single-window run.
func BenchmarkLargeScale100k(b *testing.B) { benchLargeScaleXL(b, 100_000) }

// BenchmarkLargeScale1M is the million-node run — the scale this simulator
// is built to reach (EXPERIMENTS.md: hours of wall clock, ~44 GB RSS).
func BenchmarkLargeScale1M(b *testing.B) { benchLargeScaleXL(b, 1_000_000) }
