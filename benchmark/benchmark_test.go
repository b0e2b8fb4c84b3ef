package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	heapgossip "repro"
	"repro/internal/scenario"
)

// contract is the part of BENCHMARK.json the benchmark's output must match.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	var c contract
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestContractFile(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside the allowed alphabet", name)
		}
		if unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
		if seen[name] {
			t.Errorf("metric %s is listed twice", name)
		}
		seen[name] = true
	}
	for _, m := range c.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range c.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(c.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(c.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if c.PerLayer[i].Name != m.name || c.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
				i, c.PerLayer[i].Name, c.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// TestPercentileNearestRank checks the helper against the definition: the
// smallest sample with at least p percent of all samples at or below it.
func TestPercentileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		vals := make([]float64, 1+rng.Intn(300))
		for i := range vals {
			vals[i] = float64(rng.Intn(50)) // plenty of ties
		}
		sort.Float64s(vals)
		for _, p := range []float64{0.1, 1, 25, 50, 75, 90, 99, 99.9, 100} {
			want := math.NaN()
			for _, v := range vals {
				atOrBelow := 0
				for _, x := range vals {
					if x <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p/100*float64(len(vals)) {
					want = v
					break
				}
			}
			if got := percentile(vals, p); got != want {
				t.Fatalf("percentile(%d samples, %v) = %v, nearest rank is %v", len(vals), p, got, want)
			}
		}
	}
}

// TestSpreadQuartiles pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestSpreadQuartiles(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
	if got, want := spread([]float64{4, 2, 7, 5, 4}), (6.0-3.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestMaxrssUnit(t *testing.T) {
	want := 1024
	if runtime.GOOS == "darwin" {
		want = 1
	}
	if maxrssUnitBytes != want {
		t.Errorf("ru_maxrss unit is %d bytes on %s, want %d", maxrssUnitBytes, runtime.GOOS, want)
	}
	if mb := peakRSSMB(); mb < 1 || mb > 1e5 {
		t.Errorf("peak RSS reads %v MB", mb)
	}
}

// toyWorkloads are the four workloads at a size a race-enabled test affords.
func toyWorkloads() map[string]workload {
	toySim := func(cfg scenario.Config) workload {
		cfg.Nodes, cfg.Windows, cfg.StreamStart, cfg.Drain = 30, 1, time.Second, 4*time.Second
		return &simWorkload{cfg: cfg}
	}
	return map[string]workload{
		"sim-paper":    toySim(paperCell(3)),
		"sim-large":    toySim(largeCell(3)),
		"udp-saturate": &udpWorkload{seed: 3, datagrams: 20_000, inFlight: 1024},
		"live-session": &liveWorkload{
			seed: 3, nodes: 5, windows: 1,
			geom:       heapgossip.Geometry{RateBps: 551_000, PacketBytes: 1316, DataPerWindow: 20, ParityPerWindow: 2},
			startDelay: 300 * time.Millisecond, drain: 700 * time.Millisecond,
		},
	}
}

// TestSmoke runs both passes of every workload at toy size and checks that
// each metric BENCHMARK.json names is emitted exactly once, with its unit.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	outDir := t.TempDir()
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			info := runInfo{Workload: sp.name, Seed: 3}
			meter, err := newSpeedometer(burstSteps / 400)
			if err != nil {
				t.Fatal(err)
			}
			res, err := endToEndPass(sp, toyWorkloads()[sp.name], &info, time.Millisecond, meter)
			if err != nil {
				t.Fatal(err)
			}
			if want := 1; sp.paced && info.Reps != want || !sp.paced && info.Reps < minReps {
				t.Errorf("%d timed repetitions", info.Reps)
			}
			if !(info.HostSlowdown > 0) {
				t.Errorf("host slowdown reads %v", info.HostSlowdown)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
			checkMetrics(t, info, res, want)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}

			info = runInfo{Workload: sp.name, Seed: 3, Traced: true}
			res, err = tracedPass(sp, toyWorkloads()[sp.name], &info, outDir, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("traced pass: failed %d", res.Failed)
			}
			want = map[string]string{}
			for _, m := range c.PerLayer {
				want[m.Name] = m.Unit
			}
			checkMetrics(t, info, res, want)
			shares := 0.0
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".cpu_share_pct") || name == "runtime.bg_share_pct" {
					shares += m.Value
				}
			}
			if math.Abs(shares-100) > 1 {
				t.Errorf("cpu shares sum to %v, want 100", shares)
			}
			for _, suffix := range []string{".trace.json", ".cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(outDir, sp.name+suffix)); err != nil || st.Size() == 0 {
					t.Errorf("traced pass left no %s%s (%v)", sp.name, suffix, err)
				}
			}
		})
	}
}

// checkMetrics asserts the result holds exactly the wanted metrics with the
// wanted units, and that the printed form names each once and ends in the
// result line.
func checkMetrics(t *testing.T, info runInfo, res result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s is missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	var buf bytes.Buffer
	printResult(&buf, info, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for name := range want {
		n := 0
		for _, l := range lines[:len(lines)-1] {
			if strings.HasPrefix(l, name+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("metric %s is printed %d times", name, n)
		}
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", last)
	}
}
