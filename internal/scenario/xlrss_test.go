//go:build linux

package scenario

import (
	"flag"
	"syscall"
	"testing"
	"time"
)

var (
	xlNodes  = flag.Int("xl-nodes", 0, "run TestLargeScaleXLPeakRSS at this many nodes (0 skips it)")
	xlShards = flag.Int("xl-shards", 1, "shard count for TestLargeScaleXLPeakRSS")
)

// TestLargeScaleXLPeakRSS runs one LargeScaleXL(N, 17, S) cell and reports its
// wall time and the process's peak RSS, whole and per node. It is opt-in,
// since a 10k cell takes seconds and hundreds of MB:
//
//	make xl-rss N=10000 S=1
func TestLargeScaleXLPeakRSS(t *testing.T) {
	if *xlNodes <= 0 {
		t.Skip("opt-in: pass -xl-nodes N (make xl-rss)")
	}
	n := *xlNodes
	start := time.Now()
	if _, err := Run(LargeScaleXL(n, 17, *xlShards)); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	// Linux reports ru_maxrss in KiB.
	t.Logf("LargeScaleXL(%d, 17, %d): wall %.1f s, ru_maxrss %.0f MiB, %.1f KiB/node",
		n, *xlShards, wall.Seconds(), float64(ru.Maxrss)/1024, float64(ru.Maxrss)/float64(n))
}
