package scenario

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// Sweep describes a grid of scenarios: the cross product of the axis slices
// below applied on top of Base, each cell replicated Replicas times with
// deterministically derived seeds. RunSweep executes the grid on a bounded
// worker pool; results are identical for any worker count because every
// run's seed is derived from its grid position before scheduling.
//
// An empty axis slice means "keep Base's value" (one implicit element), so
// the zero Sweep with only Base set describes a single run.
type Sweep struct {
	// Base is the configuration every cell starts from.
	Base Config

	// Protocols, Dists, Nodes, Fanouts and ChurnFractions are the grid
	// axes; each non-empty slice multiplies the cell count. A churn
	// fraction > 0 injects a catastrophic failure of that fraction of the
	// nodes halfway through the stream.
	Protocols      []Protocol
	Dists          []Distribution
	Nodes          []int
	Fanouts        []float64
	ChurnFractions []float64

	// Variants is the escape hatch for axes the named slices cannot
	// express: each Variant mutates the cell's config arbitrarily (after
	// the named axes are applied, before the seed is derived).
	Variants []Variant

	// Replicas runs each cell that many times with distinct derived seeds.
	// Default 1.
	Replicas int
	// PairedSeeds makes replica r of *every* cell share one derived seed
	// (common random numbers): controlled A/B comparisons across cells —
	// e.g. the same run with and without freeze injection — then differ
	// only in the axis under study. Default off: each (cell, replica)
	// gets its own seed, the right choice for independent statistics.
	PairedSeeds bool
	// BaseSeed roots the per-run seed derivation. Default Base.Seed.
	BaseSeed int64
	// Workers bounds the worker pool. Default runtime.GOMAXPROCS(0).
	Workers int
	// SummaryLag is the playback lag used by the per-cell stream-quality
	// summary statistics. Default 10 s.
	SummaryLag time.Duration
	// DropRuns discards each full Result after it is folded into its
	// cell's summary, bounding memory on large sweeps.
	DropRuns bool
	// Progress, if non-nil, is called (serialized) after every run.
	Progress func(cell string, replica int, elapsed time.Duration)
}

// Variant is a named arbitrary config mutation used as a sweep axis.
type Variant struct {
	Name   string
	Mutate func(*Config)
}

// TopologyVariants builds the canonical A/B axis for a clustered topology:
// "topo-blind" embeds the run in the clustered network but keeps the flat
// (locality-oblivious) fanout, "topo-aware" additionally splits the fanout
// budget into intra and inter draws. Both cells see the identical topology,
// so the comparison isolates the protocol's cluster awareness.
func TopologyVariants(tc topo.Config, intra, inter float64) []Variant {
	blind := tc
	aware := tc
	return []Variant{
		{Name: "topo-blind", Mutate: func(c *Config) {
			c.Topology = &blind
			c.FanoutIntra, c.FanoutInter = 0, 0
		}},
		{Name: "topo-aware", Mutate: func(c *Config) {
			c.Topology = &aware
			c.FanoutIntra, c.FanoutInter = intra, inter
		}},
	}
}

// CellKey identifies one cell of the sweep grid.
type CellKey struct {
	Protocol      Protocol
	Dist          string // distribution name, "unconstrained" if none
	Nodes         int
	Fanout        float64
	ChurnFraction float64
	Variant       string
}

// String renders the key as a stable, readable cell name.
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s/n%d/f%g", k.Protocol, k.Dist, k.Nodes, k.Fanout)
	if k.ChurnFraction > 0 {
		s += fmt.Sprintf("/churn%g", k.ChurnFraction)
	}
	if k.Variant != "" {
		s += "/" + k.Variant
	}
	return s
}

// CellSummary aggregates one cell's replicas into the headline statistics of
// the paper's evaluation. Node-level samples are pooled across replicas.
type CellSummary struct {
	// Replicas is the number of runs folded in.
	Replicas int
	// MeasuredNodes counts the pooled node samples (excluded and crashed
	// nodes are skipped, as everywhere in internal/metrics).
	MeasuredNodes int
	// JFMean / JFP10 are the mean and 10th percentile over nodes of the
	// jitter-free window share at the sweep's SummaryLag.
	JFMean, JFP10 float64
	// LagCDF is the pooled distribution over nodes of the minimum lag to
	// receive 99% of the stream (seconds; +Inf for never) — the merged
	// Figures 1-3 curve for this cell.
	LagCDF metrics.CDF
	// LagP50 / LagP90 are percentiles of LagCDF.
	LagP50, LagP90 float64
	// NeverFrac is the fraction of nodes that never reach 99% delivery.
	NeverFrac float64
	// MinLagJFMean is the mean (finite samples only) of the minimum
	// playback lag for a fully jitter-free stream.
	MinLagJFMean float64
	// UsageMean is the mean upload utilization across nodes and replicas
	// (0 for unconstrained cells).
	UsageMean float64
	// MsgsPerRun is the mean number of network messages per run.
	MsgsPerRun float64
	// Elapsed sums the replicas' wall-clock run times.
	Elapsed time.Duration
}

// CellResult is one grid cell's outcome.
type CellResult struct {
	Key CellKey
	// Seeds holds the derived per-replica seeds, in replica order.
	Seeds []int64
	// Runs holds the full per-replica results (nil when Sweep.DropRuns).
	Runs []*Result
	// Summary aggregates the replicas.
	Summary CellSummary
}

// SweepResult is the outcome of a full sweep, cells in grid order
// (protocol, dist, nodes, fanout, churn, variant — slowest to fastest).
type SweepResult struct {
	Cells      []CellResult
	SummaryLag time.Duration
	// Workers and Elapsed record how the sweep actually executed; they do
	// not affect the measurements.
	Workers int
	Elapsed time.Duration
}

// Find returns the first cell matching the predicate, or nil.
func (r *SweepResult) Find(match func(CellKey) bool) *CellResult {
	for i := range r.Cells {
		if match(r.Cells[i].Key) {
			return &r.Cells[i]
		}
	}
	return nil
}

// CellByVariant returns the first cell with the given variant name, or nil.
func (r *SweepResult) CellByVariant(name string) *CellResult {
	return r.Find(func(k CellKey) bool { return k.Variant == name })
}

// sweepCSVHeader is the stable column set of WriteCSV. Wall-clock and worker
// fields are deliberately excluded so that the bytes depend only on the
// sweep definition and seeds, never on scheduling.
var sweepCSVHeader = []string{
	"protocol", "dist", "nodes", "fanout", "churn", "variant",
	"replicas", "measured_nodes", "jf_mean", "jf_p10",
	"lag_p50_s", "lag_p90_s", "never_frac", "minlag_jf_mean_s",
	"usage_mean", "msgs_per_run",
}

// WriteCSV writes one row per cell in grid order. For a fixed sweep
// definition the output is byte-identical regardless of worker count.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for i := range r.Cells {
		c := &r.Cells[i]
		s := &c.Summary
		rec := []string{
			string(c.Key.Protocol),
			c.Key.Dist,
			strconv.Itoa(c.Key.Nodes),
			strconv.FormatFloat(c.Key.Fanout, 'g', -1, 64),
			strconv.FormatFloat(c.Key.ChurnFraction, 'g', -1, 64),
			c.Key.Variant,
			strconv.Itoa(s.Replicas),
			strconv.Itoa(s.MeasuredNodes),
			f(s.JFMean), f(s.JFP10),
			f(s.LagP50), f(s.LagP90),
			f(s.NeverFrac), f(s.MinLagJFMean),
			f(s.UsageMean), f(s.MsgsPerRun),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders the per-cell summaries as an aligned text table.
func (r *SweepResult) Table() *metrics.Table {
	tbl := &metrics.Table{Headers: []string{"cell", "reps",
		fmt.Sprintf("jitter-free@%s", r.SummaryLag), "lag P50 (s)", "lag P90 (s)",
		"never @99%", "usage", "run time"}}
	for i := range r.Cells {
		c := &r.Cells[i]
		s := &c.Summary
		tbl.AddRow(c.Key.String(),
			strconv.Itoa(s.Replicas),
			fmt.Sprintf("%.1f%%", 100*s.JFMean),
			metrics.FormatLag(s.LagP50),
			metrics.FormatLag(s.LagP90),
			fmt.Sprintf("%.0f%%", 100*s.NeverFrac),
			fmt.Sprintf("%.0f%%", 100*s.UsageMean),
			fmt.Sprintf("%.1fs", s.Elapsed.Seconds()))
	}
	return tbl
}

// runSpec is one scheduled run: a grid position with its fully built config.
type runSpec struct {
	cell    int
	replica int
	cfg     Config
}

// orDefault returns axis if non-empty, else a one-element slice of base, so
// nested grid loops always execute.
func orDefault[T any](axis []T, base T) []T {
	if len(axis) == 0 {
		return []T{base}
	}
	return axis
}

// expand materializes the grid: cells in deterministic order, every run's
// config (including its derived seed) fully built and validated up front.
func (sw *Sweep) expand() ([]CellResult, []runSpec, error) {
	replicas := sw.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	baseSeed := sw.BaseSeed
	if baseSeed == 0 {
		baseSeed = sw.Base.Seed
	}
	protocols := orDefault(sw.Protocols, sw.Base.Protocol)
	dists := orDefault(sw.Dists, sw.Base.Dist)
	nodes := orDefault(sw.Nodes, sw.Base.Nodes)
	fanouts := orDefault(sw.Fanouts, sw.Base.Fanout)
	churns := orDefault(sw.ChurnFractions, 0)
	variants := orDefault(sw.Variants, Variant{})

	var cells []CellResult
	var specs []runSpec
	for _, proto := range protocols {
		for _, dist := range dists {
			for _, n := range nodes {
				for _, fanout := range fanouts {
					for _, churnFrac := range churns {
						for _, variant := range variants {
							cfg := sw.Base
							cfg.Protocol = proto
							cfg.Dist = dist
							cfg.Nodes = n
							cfg.Fanout = fanout
							if dist == nil {
								cfg.Unconstrained = true
							}
							if variant.Mutate != nil {
								variant.Mutate(&cfg)
							}
							// Validate once per cell, on a copy so the real
							// runs still apply their own defaults; the key
							// records the *effective* values (defaults
							// filled in), and the probe places churn
							// mid-stream.
							probe := cfg
							if err := probe.applyDefaults(); err != nil {
								distName := "unconstrained"
								if cfg.Dist != nil {
									distName = cfg.Dist.Name()
								}
								return nil, nil, fmt.Errorf("sweep cell %s/%s/n%d (variant %q): %w",
									cfg.Protocol, distName, cfg.Nodes, variant.Name, err)
							}
							if churnFrac > 0 {
								cfg.Churn = &churn.Catastrophic{
									At:         probe.StreamStart + probe.StreamDuration()/2,
									Fraction:   churnFrac,
									NotifyMean: 10 * time.Second,
								}
							}
							if cfg.Churn != nil {
								// Run only validates churn at apply time,
								// halfway into the run; fail the whole grid
								// before burning CPU on its other cells.
								if err := cfg.Churn.Validate(); err != nil {
									return nil, nil, fmt.Errorf("sweep cell %s/n%d churn %g: %w",
										cfg.Protocol, cfg.Nodes, churnFrac, err)
								}
							}
							key := CellKey{
								Protocol:      probe.Protocol,
								Dist:          "unconstrained",
								Nodes:         probe.Nodes,
								Fanout:        probe.Fanout,
								ChurnFraction: churnFrac,
								Variant:       variant.Name,
							}
							if churnFrac == 0 && cfg.Churn != nil {
								// Churn supplied via Base/variant rather
								// than the axis still labels the cell.
								key.ChurnFraction = cfg.Churn.Fraction
							}
							if probe.Dist != nil {
								key.Dist = probe.Dist.Name()
							}
							cellIdx := len(cells)
							seedCell := cellIdx
							if sw.PairedSeeds {
								seedCell = 0
							}
							cell := CellResult{Key: key, Seeds: make([]int64, replicas)}
							for rep := 0; rep < replicas; rep++ {
								runCfg := cfg
								// Run fills stream defaults in place, and runs
								// are concurrent: none may share an array.
								runCfg.Streams = append([]StreamSpec(nil), cfg.Streams...)
								runCfg.Seed = deriveSeed(baseSeed, seedCell, rep)
								runCfg.Name = fmt.Sprintf("%s#%d", key, rep)
								cell.Seeds[rep] = runCfg.Seed
								specs = append(specs, runSpec{cell: cellIdx, replica: rep, cfg: runCfg})
							}
							cells = append(cells, cell)
						}
					}
				}
			}
		}
	}
	return cells, specs, nil
}

// deriveSeed maps a grid position to a run seed with a splitmix64-style
// mixer: well-spread, collision-free in practice, and — crucially — a pure
// function of (baseSeed, cell, replica), never of scheduling order.
func deriveSeed(base int64, cell, replica int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15
	z += uint64(cell)*0xbf58476d1ce4e5b9 + uint64(replica)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // keep it positive for friendlier -seed flags
}

// RunSweep executes the sweep grid on a bounded worker pool and aggregates
// per-cell summary statistics. Results are independent of Workers.
func RunSweep(sw Sweep) (*SweepResult, error) {
	cells, specs, err := sw.expand()
	if err != nil {
		return nil, err
	}
	workers := sw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	summaryLag := sw.SummaryLag
	if summaryLag == 0 {
		summaryLag = 10 * time.Second
	}

	start := time.Now()
	results := make([]*Result, len(specs))

	// Cell c's specs are contiguous in grid order; track them so a cell can
	// be folded — and, with DropRuns, its Results freed — the moment its
	// last replica completes, instead of retaining every run until the end.
	cellSpecs := make([][]int, len(cells))
	for i := range specs {
		cellSpecs[specs[i].cell] = append(cellSpecs[specs[i].cell], i)
	}
	remaining := make([]int, len(cells))
	for c := range cellSpecs {
		remaining[c] = len(cellSpecs[c])
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex // guards cells, remaining, runErr and Progress
		aborted atomic.Bool
		runErr  error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if aborted.Load() {
					continue
				}
				spec := &specs[idx]
				runStart := time.Now()
				res, err := Run(spec.cfg)
				elapsed := time.Since(runStart)
				mu.Lock()
				if err != nil {
					aborted.Store(true)
					if runErr == nil {
						runErr = fmt.Errorf("sweep run %s: %w", spec.cfg.Name, err)
					}
					mu.Unlock()
					continue
				}
				results[idx] = res
				cell := &cells[spec.cell]
				cell.Summary.Elapsed += elapsed
				remaining[spec.cell]--
				if remaining[spec.cell] == 0 {
					// Fold in replica order (spec order), not completion
					// order, so aggregation is scheduling-independent.
					runs := make([]*Result, 0, len(cellSpecs[spec.cell]))
					for _, si := range cellSpecs[spec.cell] {
						runs = append(runs, results[si])
					}
					summarizeCell(&cell.Summary, runs, summaryLag)
					if sw.DropRuns {
						for _, si := range cellSpecs[spec.cell] {
							results[si] = nil
						}
					} else {
						cell.Runs = runs
					}
				}
				if sw.Progress != nil {
					sw.Progress(cell.Key.String(), spec.replica, elapsed)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return &SweepResult{
		Cells:      cells,
		SummaryLag: summaryLag,
		Workers:    workers,
		Elapsed:    time.Since(start),
	}, nil
}

// summarizeCell pools node-level samples across a cell's replicas and fills
// in the summary statistics (Elapsed is accumulated by the caller).
func summarizeCell(s *CellSummary, runs []*Result, lag time.Duration) {
	s.Replicas = len(runs)
	var jf, minLags []float64
	lagCDFs := make([]metrics.CDF, 0, len(runs))
	var usageSum float64
	var usageN int
	var msgs float64
	for _, res := range runs {
		// Multi-source cells pool node samples across their streams, so the
		// summary reflects every stream's dissemination (single-stream runs
		// have exactly one entry aliasing res.Run).
		for _, run := range res.StreamRuns {
			q := run.Quality()
			jf = append(jf, q.JitterFree(lag)...)
			lagCDFs = append(lagCDFs, q.LagCDF())
			minLags = append(minLags, q.MinLags(0)...)
		}
		for _, i := range res.usageNodes() {
			usageSum += res.Usage[i]
			usageN++
		}
		msgs += float64(res.NetStats.MsgsSent)
	}
	s.MeasuredNodes = len(jf)
	jfCDF := metrics.NewCDF(jf)
	s.JFMean = metrics.Mean(jf)
	s.JFP10 = jfCDF.ValueAtPercentile(10)
	s.LagCDF = metrics.MergeCDFs(lagCDFs...)
	s.LagP50 = s.LagCDF.ValueAtPercentile(50)
	s.LagP90 = s.LagCDF.ValueAtPercentile(90)
	s.NeverFrac = s.LagCDF.NeverFrac()
	s.MinLagJFMean = metrics.Mean(minLags)
	if usageN > 0 {
		s.UsageMean = usageSum / float64(usageN)
	}
	if len(runs) > 0 {
		s.MsgsPerRun = msgs / float64(len(runs))
	}
}
