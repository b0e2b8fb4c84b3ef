package report

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallSuite runs fast, scaled-down experiments for testing the generators.
func smallSuite(out *strings.Builder) *Suite {
	s := NewSuite(out, 60, 4, 42)
	s.DegradedFraction = 0
	return s
}

// reportDigest is the SHA-256 of GenerateAll at 60 nodes, 4 windows and
// seed 42: the bytes `heapbench -nodes 60 -windows 4 -seed 42 -q -o FILE`
// writes. Every artifact's numbers and layout are pinned by it, so a
// refactor of the read-out that moves one digit or one column fails here.
const reportDigest = "9388098e99184dd4ab963f4038d0b1ac7c13feb7d64048bf3f4592085208c240"

func TestGenerateEveryArtifact(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	if err := s.GenerateAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Generate("nope"); err == nil {
		t.Fatal("unknown artifact accepted")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64 only: %s may fuse multiply-adds, which moves the simulated runs' last bits", runtime.GOARCH)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != reportDigest {
		t.Fatalf("GenerateAll output digest %s, want %s (the rendered report changed)", got, reportDigest)
	}
}

func TestFigure1Content(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	if err := s.Figure1(); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Figure 1", "99% delivery", "P50="} {
		if !strings.Contains(text, want) {
			t.Fatalf("figure 1 output missing %q:\n%s", want, text)
		}
	}
}

func TestFigure4AndTablesShareRuns(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	if err := s.Figure4(); err != nil {
		t.Fatal(err)
	}
	runsAfterFig4 := len(s.CachedRuns())
	if err := s.Table3(); err != nil {
		t.Fatal(err)
	}
	runsAfterTable3 := len(s.CachedRuns())
	// Table 3 adds only the ref-724 pair; the ref-691/ms-691 runs must be
	// reused from Figure 4.
	if runsAfterTable3 != runsAfterFig4+2 {
		t.Fatalf("expected 2 extra runs for Table 3, got %d -> %d: %v",
			runsAfterFig4, runsAfterTable3, s.CachedRuns())
	}
	text := out.String()
	if !strings.Contains(text, "Table 3") || !strings.Contains(text, "HEAP") {
		t.Fatalf("table 3 output malformed:\n%s", text)
	}
}

func TestFigure10Churn(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	start := time.Now()
	if err := s.Figure10(); err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Logf("figure 10 took %v", time.Since(start))
	}
	text := out.String()
	for _, want := range []string{"Figure 10", "20%", "50%", "12s lag", "30s lag"} {
		if !strings.Contains(text, want) {
			t.Fatalf("figure 10 output missing %q", want)
		}
	}
}

func TestRobustnessContent(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	if err := s.Robustness(); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Robustness", "none", "bursty", "partition",
		"spike", "captrace", "HEAP P50/P90", "netem activity", "gilbert-elliott"} {
		if !strings.Contains(text, want) {
			t.Fatalf("robustness output missing %q:\n%s", want, text)
		}
	}
	// The clean row must reuse the Figures 3-9 runs rather than rerun them.
	for _, name := range s.CachedRuns() {
		if name == "robust-none-standard" || name == "robust-none-heap" {
			t.Fatalf("clean robustness row did not share the protoRun cache: %v", s.CachedRuns())
		}
	}
}

func TestTopologyArtifactContent(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	if err := s.Topology(); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Clustered topology", "wan3", "topo-blind",
		"topo-aware", "WAN share", "jitter-free", "cuts inter-cluster (WAN) bytes"} {
		if !strings.Contains(text, want) {
			t.Fatalf("topology output missing %q:\n%s", want, text)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var out strings.Builder
	s := smallSuite(&out)
	var names []string
	s.Progress = func(name string, _ time.Duration) { names = append(names, name) }
	if err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "heap-ms-691" {
		t.Fatalf("progress calls: %v", names)
	}
	// Cached: no second progress call.
	if err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("cache miss on repeat: %v", names)
	}
}
