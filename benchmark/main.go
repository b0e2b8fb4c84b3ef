// Command benchmark measures the repository end to end on both substrates —
// the simulator and real loopback sockets — and, in a separate traced pass,
// layer by layer. See README.md for the workloads, the metrics and the modes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	heapgossip "repro"
)

// workload is one of the benchmark's scenarios. open prepares inputs,
// sockets and peers; every run is one repetition, timed by the workload
// itself around exactly the section the metrics are about; close releases
// what open took and runs the end-of-run checks. The remaining methods serve
// the traced pass.
type workload interface {
	open() error
	run() (rep, error)
	close() error

	shape() layerShape
	// variant reruns the repetition along a second code path and names the
	// wall-clock ratio metric it feeds ("" when the workload has none).
	variant() (metric string, r rep, err error)
	// counters are the count-type layer metrics of the last repetition, and
	// its message mix for the wire driver.
	counters(last rep) (map[string]float64, msgMix)
}

type spec struct {
	name string
	// warmup: run one discarded repetition before timing. The live session
	// has none — its warm-up is the aggregation gossip before the stream.
	warmup bool
	// paced: a repetition lasts as long as the stream clock says, so one
	// fills the run instead of as many as fit, and its times do not follow
	// the host's speed.
	paced bool
	// hostLag: lag is host time spent computing (not simulated time, not the
	// gossip timers'), so it follows the host's speed.
	hostLag bool
	build   func(seed int64, budget time.Duration, traced bool) workload
}

// minReps is the floor on timed repetitions of an unpaced workload, however
// short --seconds is.
const minReps = 5

var specs = []spec{
	{name: "sim-paper", warmup: true, build: func(seed int64, _ time.Duration, _ bool) workload {
		return &simWorkload{cfg: paperCell(seed)}
	}},
	{name: "sim-large", warmup: true, build: func(seed int64, _ time.Duration, _ bool) workload {
		return &simWorkload{cfg: largeCell(seed)}
	}},
	{name: "udp-saturate", warmup: true, hostLag: true, build: func(seed int64, _ time.Duration, _ bool) workload {
		return &udpWorkload{seed: seed, datagrams: 1_000_000, inFlight: 1024}
	}},
	{name: "live-session", paced: true, build: func(seed int64, budget time.Duration, traced bool) workload {
		if traced {
			budget /= 2 // one untraced and one traced session share the run
		}
		w := &liveWorkload{seed: seed, nodes: 24, geom: heapgossip.PaperGeometry(), startDelay: 2 * time.Second}
		w.windows, w.drain = liveSession(budget, w.geom.WindowDuration())
		return w
	}},
}

// liveSession fits a stream and its drain into the run: at 24 s, the paper
// geometry's 8 windows (15.4 s) and 8 s to let retransmissions land.
func liveSession(budget, window time.Duration) (windows int, drain time.Duration) {
	drain = min(8*time.Second, budget/3)
	return max(1, int((budget-drain)/window)), drain
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runInfo struct {
	Workload         string  `json:"workload"`
	Seed             int64   `json:"seed"`
	Seconds          int     `json:"seconds"`
	Traced           bool    `json:"traced"`
	NProc            int     `json:"nproc"`
	GoVersion        string  `json:"go"`
	Reps             int     `json:"timed_reps"`
	HostSlowdown     float64 `json:"host_slowdown"` // median reference burst over the reference, see hostspeed.go
	LagSamples       int     `json:"lag_samples_per_rep"`
	DeliveriesWanted int64   `json:"deliveries_expected_per_rep"`
	Deliveries       int64   `json:"deliveries_per_rep"`
}

// note records what the timed repetitions were; the per-repetition numbers
// are the last one's.
func (info *runInfo) note(reps []rep) {
	last := reps[len(reps)-1]
	info.Reps, info.LagSamples = len(reps), last.lagSamples
	info.DeliveriesWanted, info.Deliveries = last.expected, last.deliveries
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload once and print its result as the last line (default: all of them, each in a child process)")
	seed := fs.Int64("seed", 17, "seed of the generated inputs: simulator seed, datagram contents, node seeds")
	seconds := fs.Int("seconds", 24, "how long one run measures")
	trace := fs.Int("trace", 0, "1: the traced pass (per-layer metrics, spans and a CPU profile under -out) instead of the end-to-end pass")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for the traced pass's span and profile files")
	noise := fs.Int("noise", 0, "run every workload this many times, on seeds seed..seed+N-1, and print each metric's spread next to its bound")
	setFile := fs.String("o", "", "with -noise or no -workload: write the result set to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two result sets (files A B): exit 1 if B is worse than A by more than a metric's bound")
	bounds := fs.String("bounds", "BENCHMARK.json", "the file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result set files"))
		}
		ok, err := compareSets(stdout, fs.Arg(0), fs.Arg(1), *bounds)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *name == "":
		if err := runSets(stdout, stderr, max(*noise, 1), *seed, *seconds, *trace, *outDir, *setFile, *bounds); err != nil {
			return fail(err)
		}
		return 0
	}
	sp := findSpec(*name)
	if sp == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	info := runInfo{Workload: sp.name, Seed: *seed, Seconds: *seconds, Traced: *trace != 0,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	budget := time.Duration(*seconds) * time.Second
	w := sp.build(*seed, budget, *trace != 0)
	var res result
	var err error
	if *trace != 0 {
		res, err = tracedPass(sp, w, &info, *outDir, 1)
	} else {
		var meter *speedometer
		if meter, err = newSpeedometer(burstSteps); err == nil {
			res, err = endToEndPass(sp, w, &info, budget, meter)
		}
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", sp.name, err))
	}
	printResult(stdout, info, res)
	return 0
}

func printResult(w io.Writer, info runInfo, res result) {
	infoLine, _ := json.Marshal(info)
	fmt.Fprintf(w, "info %s\n", infoLine)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// setUp opens the workload and runs the discarded warm-up repetition, each
// under a span of its own when the pass is traced.
func setUp(sp *spec, w workload, tr *tracer, parent int) error {
	setup := tr.begin("setup", parent)
	defer func() { tr.end(setup, 0) }()
	open := tr.begin("open", setup)
	err := w.open()
	tr.end(open, 0)
	if err != nil || !sp.warmup {
		return err
	}
	warm := tr.begin("warmup", setup)
	_, err = w.run()
	tr.end(warm, 0)
	return err
}

// endToEndPass is the untraced pass: set-up, then timed repetitions until the
// budget is spent, each metric reported as the median over repetitions, with
// a reference burst between every two steps to gauge the host's speed.
func endToEndPass(sp *spec, w workload, info *runInfo, budget time.Duration, meter *speedometer) (result, error) {
	defer w.close() // for the error paths; closing twice is harmless
	meter.burst()
	if err := setUp(sp, w, nil, 0); err != nil {
		return result{}, err
	}
	setup := time.Since(processStart)
	meter.burst()
	var reps []rep
	for start := time.Now(); ; {
		r, err := w.run()
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		meter.burst()
		perRep := time.Since(start) / time.Duration(len(reps))
		if sp.paced || (len(reps) >= minReps && time.Since(start)+perRep > budget) {
			break
		}
	}
	if err := w.close(); err != nil {
		return result{}, err
	}
	info.HostSlowdown = meter.slowdown()
	res := result{Correct: true, Metrics: endToEnd(sp, setup, reps, info.HostSlowdown)}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	info.note(reps)
	return res, nil
}

// tracedPass produces the per-layer metrics: one untraced repetition, two
// under a CPU profile (one, when the stream clock paces it), the workload's
// variant, then the layer drivers — with a span around each step and the
// layers' counters read at the repetition boundaries. driverWork scales the
// drivers' operation counts (1 outside tests).
func tracedPass(sp *spec, w workload, info *runInfo, outDir string, driverWork float64) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	defer w.close() // for the error paths; closing twice is harmless
	tr := &tracer{}
	root := tr.begin("run", -1)
	wallPerDelivery := func(r rep) float64 { return float64(r.wall.Nanoseconds()) / float64(r.deliveries) }
	lastRepSpan := 0
	timedRep := func(i int) (rep, error) {
		lastRepSpan = tr.begin(fmt.Sprintf("rep[%d]", i), root)
		r, err := w.run()
		tr.end(lastRepSpan, int(r.deliveries))
		return r, err
	}

	if err := setUp(sp, w, tr, root); err != nil {
		return result{}, err
	}
	untraced, err := timedRep(0)
	if err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, err
	}
	tracedReps := 2
	if sp.paced {
		tracedReps = 1
	}
	var traced []rep
	for i := 1; i <= tracedReps && err == nil; i++ {
		var r rep
		r, err = timedRep(i)
		traced = append(traced, r)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return result{}, err
	}
	last := traced[len(traced)-1]
	values, mix := w.counters(last)
	tr.spans[lastRepSpan].Counters = maps.Clone(values)

	tracedWall := make([]float64, len(traced))
	for i, r := range traced {
		tracedWall[i] = wallPerDelivery(r)
	}
	values["trace.overhead_pct"] = 100 * (median(tracedWall)/wallPerDelivery(untraced) - 1)
	values["runtime.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	vs := tr.begin("variant", root)
	ratioName, vr, err := w.variant()
	tr.end(vs, int(vr.deliveries))
	if err != nil {
		return result{}, err
	}
	if ratioName != "" {
		values[ratioName] = wallPerDelivery(vr) / wallPerDelivery(untraced)
	}
	if err := w.close(); err != nil {
		return result{}, err
	}

	shape := w.shape()
	shape.work = driverWork
	maps.Copy(values, runLayerDrivers(tr, root, shape, mix, info.Seed))
	shares, err := cpuShares(profile.Bytes())
	if err != nil {
		return result{}, err
	}
	maps.Copy(values, shares)
	tr.end(root, 0)

	base := filepath.Join(outDir, sp.name)
	if err := os.WriteFile(base+".cpu.pprof", profile.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	info.note(traced)
	if err := tr.write(base+".trace.json", info); err != nil {
		return result{}, err
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range append(traced, untraced) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit} // a layer the workload bypasses reports 0
	}
	return res, nil
}

// perLayerMetrics is every metric of the traced pass, in the order of the
// README's layer table. BENCHMARK.json lists the same names and units.
var perLayerMetrics = []struct{ name, unit string }{
	{"simnet.event_ns", "ns"}, {"simnet.timer_ns", "ns"}, {"simnet.cpu_share_pct", "%"},
	{"simnet.events_per_delivery", "count"}, {"simnet.msgs_per_delivery", "count"},
	{"simnet.lost_pct", "%"}, {"simnet.taildrop_pct", "%"}, {"simnet.shard2_wall_ratio", "ratio"},
	{"core.propose_ns", "ns"}, {"core.request_ns", "ns"}, {"core.serve_ns", "ns"}, {"core.round_ns", "ns"},
	{"core.cpu_share_pct", "%"}, {"core.proposes_per_delivery", "count"}, {"core.requests_per_delivery", "count"},
	{"core.duplicate_pct", "%"}, {"core.retransmit_pct", "%"}, {"core.giveups", "count"},
	{"aggregation.receive_ns", "ns"}, {"aggregation.tick_ns", "ns"}, {"aggregation.cpu_share_pct", "%"},
	{"aggregation.msgs_per_delivery", "count"}, {"aggregation.bytes_share_pct", "%"},
	{"membership.view_sample_ns", "ns"}, {"membership.cyclon_sample_ns", "ns"},
	{"membership.cyclon_shuffle_ns", "ns"}, {"membership.cpu_share_pct", "%"},
	{"wire.marshal_ns", "ns"}, {"wire.unmarshal_ns", "ns"}, {"wire.allocs_per_unmarshal", "count"}, {"wire.cpu_share_pct", "%"},
	{"netem.judge_ns", "ns"}, {"netem.cpu_share_pct", "%"},
	{"ratelimit.unpaced_ns_per_item", "ns"}, {"ratelimit.cpu_share_pct", "%"},
	{"ratelimit.paced_release_err_us_p99", "us"}, {"ratelimit.backlog_ms_max", "ms"}, {"ratelimit.tail_dropped", "count"},
	{"udpnet.cpu_share_pct", "%"}, {"udpnet.syscall_share_pct", "%"}, {"udpnet.pps", "1/s"},
	{"udpnet.decode_errors", "count"}, {"udpnet.single_wall_ratio", "ratio"},
	{"stream.receiver_ns", "ns"}, {"stream.cpu_share_pct", "%"}, {"stream.publish_late_ms_p99", "ms"},
	{"scenario.cpu_share_pct", "%"},
	{"runtime.gc_share_pct", "%"}, {"runtime.malloc_share_pct", "%"}, {"runtime.gc_pause_ms_total", "ms"}, {"runtime.bg_share_pct", "%"},
	{"trace.overhead_pct", "%"},
}
