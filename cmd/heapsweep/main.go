// Command heapsweep runs a grid of simulated experiments in parallel and
// aggregates them into the paper's headline tables, one summary row per
// (protocol, distribution, node count, fanout, churn) cell.
//
// The default grid is the paper's central comparison — standard gossip vs.
// HEAP on the three Table 1 distributions at the paper's scale — i.e. the
// data behind Figures 3-9 and Tables 2-3 of EXPERIMENTS.md:
//
//	heapsweep                                   # the headline grid (~minutes)
//	heapsweep -nodes 120 -windows 10            # scaled-down quick look
//	heapsweep -dists ms-691 -fanouts 7,15,20,25,30 -protocols standard  # Figure 2
//	heapsweep -churn 0,0.2,0.5 -dists ref-691   # Figure 10's failure grid
//	heapsweep -replicas 5 -csv out/             # 5 seeds per cell + CSV export
//
// With -largescale it runs the LargeScale family instead: HEAP over Cyclon
// peer sampling on the bimodal distribution at 1k-20k nodes, with steady,
// flash-crowd, churn-burst, and mixed variants per size (the -protocols,
// -dists, -fanouts, -churn and -windows flags are ignored; -nodes picks the
// sizes):
//
//	heapsweep -largescale                       # 1k and 5k nodes, 4 variants each
//	heapsweep -largescale -nodes 10000          # one 10k-node grid
//
// With -netem it adds an adverse-network axis (internal/netem profiles):
// every cell runs once per profile on top of a clean baseline cell, so the
// summary table reads as a robustness comparison. -netem all selects every
// stock profile; a comma list picks some:
//
//	heapsweep -netem all -dists ms-691                    # HEAP vs standard under adversity
//	heapsweep -netem bursty,partition -protocols heap
//	heapsweep -largescale -netem bursty                   # adversity at 1k-5k nodes
//
// With -streams K every run carries K concurrent streams from K distinct
// broadcasters (stream k starts k·stagger after the first), competing for
// each node's upload budget through the fanout-budget allocator; cell
// summaries pool node samples across all K streams. Ignored by -largescale.
//
//	heapsweep -streams 2 -dists ms-691 -windows 10     # 2-source contention grid
//	heapsweep -streams 4 -stagger 1s -protocols heap   # 4 broadcasters, 1 s apart
//
// With -adapt every constrained node runs the congestion-driven capability
// re-estimation controller (internal/adapt): real uplink pressure rewrites
// the advertised capability with hysteresis. Pair it with degraded nodes or
// the captrace-silent netem profile for the A/B the adapt report artifact
// renders:
//
//	heapsweep -adapt -netem captrace-silent -protocols heap -dists ms-691
//
// With -topology P every cell runs twice on the clustered topology profile P
// (internal/topo: wan3, wan5, hubspoke): once topology-blind (the flat
// protocol on the clustered network) and once topology-aware (the fanout
// budget split into -fintra intra-cluster and -finter inter-cluster draws),
// so the summary table reads as a WAN-traffic A/B. Ignored by -largescale.
//
//	heapsweep -topology wan3 -dists ms-691 -protocols heap
//	heapsweep -topology hubspoke -fintra 6 -finter 1 -replicas 3
//
// With -adversary F every cell runs three times — honest baseline, F
// freeriders with detectors observe-only, and the same mix with the
// misbehavior detector armed (internal/misbehave) — so the summary table
// reads as a detection A/B. Freeriders keep the axis protocol-agnostic
// (capability liars need HEAP; use the report suite's adversary artifact
// for the full class mix). Ignored by -largescale.
//
//	heapsweep -adversary 0.1 -dists ms-691 -protocols heap
//	heapsweep -adversary 0.1 -replicas 3 -csv out/
//
// With -csv DIR it writes DIR/sweep.csv (one row per cell, byte-identical
// for a fixed grid and seed regardless of -workers) and DIR/lagcdf.csv (the
// pooled per-cell lag CDFs in long series format for replotting).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/topo"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		protocols = flag.String("protocols", "standard,heap",
			"comma-separated protocols (standard, heap, tree)")
		dists = flag.String("dists", "ref-691,ref-724,ms-691",
			"comma-separated distributions (ref-691, ref-724, ms-691, uniform-691, none)")
		nodesFlag   = flag.String("nodes", "270", "comma-separated system sizes incl. source")
		fanoutsFlag = flag.String("fanouts", "7", "comma-separated average fanouts fbar")
		churnFlag   = flag.String("churn", "0",
			"comma-separated fractions of nodes crashing mid-stream (0 disables)")
		windows    = flag.Int("windows", 93, "stream length in FEC windows (~1.93s each)")
		replicas   = flag.Int("replicas", 1, "seed replicas per cell")
		seed       = flag.Int64("seed", 1, "base seed for deterministic per-run derivation")
		workers    = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		lag        = flag.Duration("lag", 10*time.Second, "playback lag for stream-quality summaries")
		csvDir     = flag.String("csv", "", "write sweep.csv and lagcdf.csv into this directory")
		plots      = flag.Bool("plots", false, "render the pooled lag CDF of every cell as an ASCII plot")
		quiet      = flag.Bool("q", false, "suppress per-run progress output")
		largeScale = flag.Bool("largescale", false,
			"run the LargeScale family (1k-20k nodes, flash crowds, churn bursts) instead of the paper grid")
		netemFlag = flag.String("netem", "",
			"adverse-network variant axis: 'all' or a comma list of netem profiles ("+
				strings.Join(netem.ProfileNames(), ", ")+")")
		streams = flag.Int("streams", 1,
			"number of concurrent broadcasters per run (multi-source: stream k starts 2s after stream k-1 "+
				"from its own source node; cell summaries pool all streams)")
		stagger   = flag.Duration("stagger", 2*time.Second, "start offset between consecutive streams (with -streams > 1)")
		adaptFlag = flag.Bool("adapt", false,
			"enable congestion-driven capability re-estimation on every constrained node (internal/adapt)")
		advFlag = flag.Float64("adversary", 0,
			"fraction of non-source nodes freeriding; adds a honest/detector-off/detector-on variant axis (internal/misbehave)")
		topoFlag = flag.String("topology", "",
			"clustered topology profile ("+strings.Join(topo.ProfileNames(), ", ")+
				"); adds a topo-blind/topo-aware variant axis (internal/topo)")
		fintra = flag.Float64("fintra", 5, "intra-cluster fanout budget for the topo-aware variant (with -topology)")
		finter = flag.Float64("finter", 2, "inter-cluster fanout budget for the topo-aware variant (with -topology)")
		shards = flag.Int("shards", runtime.GOMAXPROCS(0),
			"simulator shards per run (results are identical at any count); prefer -shards 1 with many -workers when the grid has more cells than cores")
	)
	flag.Parse()
	if *streams < 1 {
		fmt.Fprintln(os.Stderr, "heapsweep: -streams must be >= 1")
		return 1
	}
	if !(*advFlag >= 0 && *advFlag < 1) { // NaN fails too
		fmt.Fprintln(os.Stderr, "heapsweep: -adversary must be in [0, 1)")
		return 1
	}

	var netemNames []string
	if *netemFlag == "all" {
		netemNames = []string{} // empty list = every stock profile
	} else if *netemFlag != "" {
		netemNames = splitList(*netemFlag)
	}
	var adaptCfg *adapt.Config
	if *adaptFlag {
		adaptCfg = &adapt.Config{}
	}

	if *largeScale {
		// The paper-grid -nodes default is not a large-N size; only an
		// explicitly passed -nodes overrides the family's own defaults.
		nodesSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "nodes" {
				nodesSet = true
			}
		})
		var sizes []int
		if nodesSet {
			var err error
			if sizes, err = parseInts(*nodesFlag); err != nil {
				fmt.Fprintf(os.Stderr, "heapsweep: -nodes: %v\n", err)
				return 1
			}
		}
		sw := scenario.LargeScaleSweep(sizes, *replicas, *seed, *workers)
		sw.Base.Adapt = adaptCfg
		sw.Base.Shards = *shards
		sw.SummaryLag = *lag
		if netemNames != nil {
			adv, err := scenario.LargeScaleAdverseVariants(netemNames...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "heapsweep: -netem: %v\n", err)
				return 1
			}
			sw.Variants = append(sw.Variants, adv...)
		}
		if !*quiet {
			sw.Progress = func(cell string, replica int, elapsed time.Duration) {
				fmt.Fprintf(os.Stderr, "  ran %-40s rep %d in %6.1fs\n", cell, replica, elapsed.Seconds())
			}
		}
		res, err := scenario.RunSweep(sw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heapsweep: %v\n", err)
			return 1
		}
		return report(res, *replicas, *plots, *csvDir)
	}

	sw := scenario.Sweep{
		Base: scenario.Config{
			Windows:     *windows,
			StreamStart: 5 * time.Second,
			Drain:       120 * time.Second,
			Streams:     multiSourceSpecs(*streams, 5*time.Second, *stagger),
			Adapt:       adaptCfg,
			Shards:      *shards,
		},
		Replicas:   *replicas,
		BaseSeed:   *seed,
		Workers:    *workers,
		SummaryLag: *lag,
		// Full Results at paper scale are large; the tables, plots and
		// CSVs all come from the per-cell aggregates.
		DropRuns: true,
	}
	if !*quiet {
		sw.Progress = func(cell string, replica int, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "  ran %-40s rep %d in %6.1fs\n", cell, replica, elapsed.Seconds())
		}
	}

	for _, p := range splitList(*protocols) {
		proto := scenario.Protocol(p)
		if proto != scenario.StandardGossip && proto != scenario.HEAP && proto != scenario.StaticTree {
			fmt.Fprintf(os.Stderr, "heapsweep: unknown protocol %q\n", p)
			return 1
		}
		sw.Protocols = append(sw.Protocols, proto)
	}
	for _, d := range splitList(*dists) {
		if d == "none" {
			sw.Dists = append(sw.Dists, nil) // unconstrained
			continue
		}
		dist, ok := scenario.Distributions[d]
		if !ok {
			fmt.Fprintf(os.Stderr, "heapsweep: unknown distribution %q\n", d)
			return 1
		}
		sw.Dists = append(sw.Dists, dist)
	}
	var err error
	if sw.Nodes, err = parseInts(*nodesFlag); err != nil {
		fmt.Fprintf(os.Stderr, "heapsweep: -nodes: %v\n", err)
		return 1
	}
	if sw.Fanouts, err = parseFloats(*fanoutsFlag); err != nil {
		fmt.Fprintf(os.Stderr, "heapsweep: -fanouts: %v\n", err)
		return 1
	}
	if sw.ChurnFractions, err = parseFloats(*churnFlag); err != nil {
		fmt.Fprintf(os.Stderr, "heapsweep: -churn: %v\n", err)
		return 1
	}
	if netemNames != nil {
		adv, err := scenario.AdverseVariants(netemNames...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heapsweep: -netem: %v\n", err)
			return 1
		}
		sw.Variants = append([]scenario.Variant{{Name: "baseline"}}, adv...)
	}
	if *advFlag > 0 {
		vars := scenario.AdversaryVariants(scenario.AdversarySpec{FreeriderFraction: *advFlag})
		if len(sw.Variants) > 0 {
			vars = vars[1:] // the netem axis already carries a clean baseline cell
		}
		sw.Variants = append(sw.Variants, vars...)
	}
	if *topoFlag != "" {
		tc, err := topo.Profile(*topoFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heapsweep: -topology: %v\n", err)
			return 1
		}
		sw.Variants = append(sw.Variants, scenario.TopologyVariants(tc, *fintra, *finter)...)
	}

	res, err := scenario.RunSweep(sw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heapsweep: %v\n", err)
		return 1
	}
	return report(res, *replicas, *plots, *csvDir)
}

// report renders the sweep outcome: summary table, optional ASCII CDF plots,
// optional CSV export. Returns the process exit code.
func report(res *scenario.SweepResult, replicas int, plots bool, csvDir string) int {
	fmt.Printf("%d cells x %d replica(s) on %d worker(s) in %.1fs (sum of runs %.1fs)\n\n",
		len(res.Cells), replicas, res.Workers, res.Elapsed.Seconds(), sumRunTime(res).Seconds())
	fmt.Print(res.Table().Render())

	if plots {
		for i := range res.Cells {
			c := &res.Cells[i]
			plot := metrics.Plot{
				Title:  fmt.Sprintf("%s — lag to receive 99%% of the stream", c.Key),
				XLabel: "stream lag (s)",
				YLabel: "% of nodes (CDF)",
				XMax:   60, YMax: 100,
			}
			plot.Add("99% delivery", metrics.CDFSeries(c.Summary.LagCDF.Values))
			fmt.Printf("\n%s", plot.Render())
		}
	}

	if csvDir != "" {
		if err := writeCSVs(res, csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "heapsweep: %v\n", err)
			return 1
		}
		fmt.Printf("\nwrote %s/sweep.csv and %s/lagcdf.csv\n", csvDir, csvDir)
	}
	return 0
}

// writeCSVs exports the per-cell summary rows and the pooled lag CDFs.
func writeCSVs(res *scenario.SweepResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sweepFile, err := os.Create(filepath.Join(dir, "sweep.csv"))
	if err != nil {
		return err
	}
	defer sweepFile.Close()
	if err := res.WriteCSV(sweepFile); err != nil {
		return err
	}
	cdfFile, err := os.Create(filepath.Join(dir, "lagcdf.csv"))
	if err != nil {
		return err
	}
	defer cdfFile.Close()
	series := make([]metrics.Series, 0, len(res.Cells))
	for i := range res.Cells {
		c := &res.Cells[i]
		series = append(series, metrics.Series{
			Name:   c.Key.String(),
			Points: metrics.CDFSeries(c.Summary.LagCDF.Values),
		})
	}
	return metrics.WriteSeriesCSV(cdfFile, series)
}

func sumRunTime(res *scenario.SweepResult) time.Duration {
	var sum time.Duration
	for i := range res.Cells {
		sum += res.Cells[i].Summary.Elapsed
	}
	return sum
}

// multiSourceSpecs builds the -streams axis: k staggered broadcasters, each
// from its own source node (stream k from node k, starting k*stagger after
// the first). Returns nil for k <= 1: the legacy single-stream run.
func multiSourceSpecs(k int, start, stagger time.Duration) []scenario.StreamSpec {
	if k <= 1 {
		return nil
	}
	specs := make([]scenario.StreamSpec, k)
	for i := range specs {
		specs[i].Start = start + time.Duration(i)*stagger
	}
	return specs
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
