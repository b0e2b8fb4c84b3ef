// Command heapsim runs one simulated streaming experiment and prints a
// summary: per-class bandwidth usage, stream quality at a playback lag, and
// the lag distribution across nodes. -seed replays a run verbatim and -csv
// exports its raw delivery matrix; grids of runs are heapsweep's job.
//
// Examples:
//
//	heapsim -protocol heap -dist ms-691 -nodes 270 -windows 31
//	heapsim -protocol standard -dist ref-691 -fanout 15
//	heapsim -protocol heap -dist ref-691 -churn 0.2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/churn"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		protocol  = flag.String("protocol", "heap", "protocol: heap, standard or tree")
		distName  = flag.String("dist", "ms-691", "ref-691, ref-724, ms-691, uniform-691, or none (unconstrained)")
		nodes     = flag.Int("nodes", 270, "system size incl. source")
		windows   = flag.Int("windows", 31, "stream length in FEC windows (~1.93s each)")
		fanout    = flag.Float64("fanout", 7, "average fanout fbar")
		seed      = flag.Int64("seed", 1, "run seed")
		lagFlag   = flag.Duration("lag", 10*time.Second, "playback lag for quality metrics")
		churnFrac = flag.Float64("churn", 0, "fraction of nodes crashing at t=60s (0 disables)")
		sameRetry = flag.Bool("same-proposer-retry", false, "paper-literal retransmission (ablation)")
		bias      = flag.Bool("source-bias", false, "bias the source's first hop toward rich nodes (extension)")
		csvDir    = flag.String("csv", "", "write delivery.csv and nodes.csv into this directory")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "simulator shards (cores); results are identical at any count")
	)
	flag.Parse()

	cfg := scenario.Config{
		Name:            "heapsim",
		Protocol:        scenario.Protocol(*protocol),
		Nodes:           *nodes,
		Fanout:          *fanout,
		Windows:         *windows,
		Seed:            *seed,
		RetSameProposer: *sameRetry,
		SourceBias:      *bias,
		Shards:          *shards,
	}
	if *distName != "none" {
		dist, ok := scenario.Distributions[*distName]
		if !ok {
			fmt.Fprintf(os.Stderr, "heapsim: unknown distribution %q\n", *distName)
			return 1
		}
		cfg.Dist = dist
	} else {
		cfg.Unconstrained = true
	}
	if *churnFrac > 0 {
		cfg.Churn = &churn.Catastrophic{
			At:         cfg.StreamStart + 60*time.Second,
			Fraction:   *churnFrac,
			NotifyMean: 10 * time.Second,
		}
	}

	start := time.Now()
	res, err := scenario.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heapsim: %v\n", err)
		return 1
	}
	printSummary(res, *lagFlag, time.Since(start))
	if *csvDir != "" {
		if err := writeCSVs(res, *csvDir, *lagFlag); err != nil {
			fmt.Fprintf(os.Stderr, "heapsim: %v\n", err)
			return 1
		}
		fmt.Printf("\nwrote %s/delivery.csv and %s/nodes.csv\n", *csvDir, *csvDir)
	}
	return 0
}

// writeCSVs exports the run's raw delivery matrix and per-node metrics for
// external replotting.
func writeCSVs(res *scenario.Result, dir string, lag time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	deliveryFile, err := os.Create(filepath.Join(dir, "delivery.csv"))
	if err != nil {
		return err
	}
	defer deliveryFile.Close()
	if err := metrics.WriteDeliveryCSV(deliveryFile, res.Run); err != nil {
		return err
	}
	nodesFile, err := os.Create(filepath.Join(dir, "nodes.csv"))
	if err != nil {
		return err
	}
	defer nodesFile.Close()
	return metrics.WriteNodeMetricsCSV(nodesFile, res.Run, map[string]func(*metrics.NodeRecord) float64{
		"jitterfree": func(n *metrics.NodeRecord) float64 {
			return res.Run.JitterFreeShare(n, lag)
		},
		"minlag_jitterfree_s": func(n *metrics.NodeRecord) float64 {
			return metrics.Seconds(res.Run.MinLagForJitterFree(n, 0))
		},
		"lag99_s": func(n *metrics.NodeRecord) float64 {
			return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
		},
		"min_startup_s": func(n *metrics.NodeRecord) float64 {
			return metrics.Seconds(res.Run.MinStartupForSmoothPlayback(n))
		},
	})
}

func printSummary(res *scenario.Result, lag, elapsed time.Duration) {
	cfg := res.Config
	fmt.Printf("protocol=%s dist=%s nodes=%d windows=%d (stream %.0fs) fanout=%g seed=%d\n",
		cfg.Protocol, distName(cfg), cfg.Nodes, cfg.Windows,
		cfg.StreamDuration().Seconds(), cfg.Fanout, cfg.Seed)
	fmt.Printf("simulated in %.1fs: %d messages, %.1f MB sent, %d lost, %d dead-dropped\n\n",
		elapsed.Seconds(), res.NetStats.MsgsSent,
		float64(res.NetStats.BytesSent)/1e6, res.NetStats.MsgsLost, res.NetStats.MsgsDeadDrop)

	if len(res.Victims) > 0 {
		fmt.Printf("churn: %d nodes crashed\n\n", len(res.Victims))
	}

	// Per-class summary.
	tbl := &metrics.Table{Headers: []string{"class", "nodes", "usage",
		fmt.Sprintf("jitter-free@%s", lag), "min-lag jitter-free (mean)"}}
	classes := res.Run.Classes()
	for _, cl := range classes {
		var usage, jf float64
		var lags []float64
		var n int
		for i := 1; i < len(res.CapsKbps); i++ {
			node := &res.Run.Nodes[i]
			if node.Class != cl || node.Crashed {
				continue
			}
			n++
			usage += res.Usage[i]
			jf += res.Run.JitterFreeShare(node, lag)
			lags = append(lags, metrics.Seconds(res.Run.MinLagForJitterFree(node, 0)))
		}
		if n == 0 {
			continue
		}
		tbl.AddRow(cl, fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f%%", 100*usage/float64(n)),
			fmt.Sprintf("%.1f%%", 100*jf/float64(n)),
			fmt.Sprintf("%.1fs (%d never)", metrics.Mean(lags), metrics.CountInf(lags)))
	}
	fmt.Print(tbl.Render())

	// Lag CDF.
	vals := res.Run.PerNode(func(n *metrics.NodeRecord) float64 {
		return metrics.Seconds(res.Run.LagForDeliveryRatio(n, 0.99))
	})
	cdf := metrics.NewCDF(vals)
	fmt.Printf("\nlag to receive 99%% of the stream: P50=%.1fs P75=%.1fs P90=%.1fs\n",
		cdf.ValueAtPercentile(50), cdf.ValueAtPercentile(75), cdf.ValueAtPercentile(90))
}

func distName(cfg scenario.Config) string {
	if cfg.Dist == nil {
		return "unconstrained"
	}
	return cfg.Dist.Name()
}
