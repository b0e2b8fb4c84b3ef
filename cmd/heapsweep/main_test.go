package main

import (
	"os"
	"testing"
)

// TestAdversaryFlagRejectsNaN checks -adversary refuses NaN like any other
// value outside [0, 1), instead of running the grid without adversaries.
func TestAdversaryFlagRejectsNaN(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"heapsweep", "-adversary", "NaN", "-protocols", "heap", "-dists", "ref-691",
		"-nodes", "20", "-windows", "1", "-replicas", "1", "-workers", "1", "-q"}
	if code := run(); code != 1 {
		t.Fatalf("-adversary NaN: exit code %d, want 1", code)
	}
}
