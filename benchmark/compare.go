package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// resultSet is what -noise (or a run of all workloads) writes and -compare
// reads: every run's result, per workload, in seed order.
type resultSet struct {
	Seed      int64               `json:"seed"` // of the first run; run i used seed+i
	Seconds   int                 `json:"seconds"`
	Traced    bool                `json:"traced"`
	NProc     int                 `json:"nproc"`
	GoVersion string              `json:"go"`
	Runs      map[string][]result `json:"runs"`
	// Infos holds each run's info line (repetitions, host slowdown, ...), in
	// step with Runs.
	Infos map[string][]runInfo `json:"infos"`
}

// benchFile is the part of BENCHMARK.json the comparison needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runSets runs every workload n times, each run in a child process of its
// own so that no run inherits another's heap, peak RSS or warmed caches, and
// prints each metric's median and spread over the runs.
func runSets(stdout, stderr io.Writer, n int, seed int64, seconds, trace int, outDir, setFile, boundsFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: seed, Seconds: seconds, Traced: trace != 0,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Runs: map[string][]result{}, Infos: map[string][]runInfo{}}
	// Workloads alternate inside each round, so slow drift of the host lands
	// on all of them alike instead of on whichever ran last.
	for i := 0; i < n; i++ {
		for _, sp := range specs {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", sp.name, seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", sp.name, err)
			}
			set.Runs[sp.name] = append(set.Runs[sp.name], res)
			var info runInfo
			if line, ok := bytes.CutPrefix(lines[0], []byte("info ")); !ok || json.Unmarshal(line, &info) != nil {
				return fmt.Errorf("%s: first line is not an info line", sp.name)
			}
			set.Infos[sp.name] = append(set.Infos[sp.name], info)
			fmt.Fprintf(stderr, "run %d/%d %s: attempted %d failed %d\n", i+1, n, sp.name, res.Attempted, res.Failed)
		}
	}
	if setFile != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(setFile, data, 0o644); err != nil {
			return err
		}
	}
	var bench benchFile
	if !set.Traced {
		if err := readJSON(boundsFile, &bench); err != nil {
			fmt.Fprintf(stderr, "benchmark: no bounds to print (%v)\n", err)
		}
	}
	bound := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bound[m.Name] = m.Bound
	}
	fmt.Fprintf(stdout, "%-14s %-36s %14s %-6s %9s %7s\n", "workload", "metric", "median", "unit", "spread%", "bound%")
	for _, sp := range specs {
		runs := set.Runs[sp.name]
		for _, name := range metricNames(runs) {
			vals := column(runs, name)
			line := fmt.Sprintf("%-14s %-36s %14.4f %-6s", sp.name, name, median(vals), runs[0].Metrics[name].Unit)
			if len(vals) >= 2 {
				line += fmt.Sprintf(" %9.2f", 100*spread(vals))
				if b, ok := bound[name]; ok {
					line += fmt.Sprintf(" %7.1f", 100*b)
					// A spread is safe below a third of its bound; set-up time is
					// judged on medians only.
					if name != "setup_s" && spread(vals) > b/3 {
						line += "  noisy"
					}
				}
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return nil
}

func metricNames(runs []result) []string {
	var names []string
	for n := range runs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func column(runs []result, name string) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return vals
}

// spread is the interquartile range as a share of the median, with the
// quartiles of Python's statistics.quantiles(values, n=4): the acceptance
// check computes exactly this.
func spread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// compareSets applies each metric's bound to the medians of two result sets:
// B may not be worse than A by more than the bound's share of A's median, on
// any workload, and neither set may hold a failed operation.
func compareSets(stdout io.Writer, fileA, fileB, boundsFile string) (bool, error) {
	var a, b resultSet
	var bench benchFile
	if err := readJSON(fileA, &a); err != nil {
		return false, err
	}
	if err := readJSON(fileB, &b); err != nil {
		return false, err
	}
	if err := readJSON(boundsFile, &bench); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(stdout, "%-14s %-24s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "worse%", "bound%")
	for _, sp := range specs {
		ra, rb := a.Runs[sp.name], b.Runs[sp.name]
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("%s is missing from a result set", sp.name)
		}
		for _, set := range [][]result{ra, rb} {
			for _, r := range set {
				if !r.Correct || r.Failed != 0 {
					fmt.Fprintf(stdout, "%-14s a run failed %d of %d operations\n", sp.name, r.Failed, r.Attempted)
					ok = false
				}
			}
		}
		for _, m := range bench.EndToEnd {
			ma, mb := median(column(ra, m.Name)), median(column(rb, m.Name))
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict, ok = "  REGRESSED", false
			}
			fmt.Fprintf(stdout, "%-14s %-24s %14.4f %14.4f %8.2f %7.1f%s\n", sp.name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
