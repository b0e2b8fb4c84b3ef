package scenario

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestFullScaleHeadline reproduces the paper's central result at the
// paper's own scale (270 nodes, ~180 s of 600 kbps stream, ms-691: 85% of
// nodes below the stream rate) and checks every headline claim at once:
//
//  1. Standard gossip congests: the 512 kbps majority saturates, the 3 Mbps
//     minority idles, upload queues grow over the stream, and stream quality
//     collapses (§3.3, §3.4, Table 3 reports 0% jitter-free nodes).
//  2. HEAP equalizes utilization and delivers a clean stream with seconds of
//     lag (§3.3-§3.5).
//  3. Period adaptation (§5's alternative knob) is far weaker than fanout
//     adaptation: infect-and-die proposes each id to exactly f peers no
//     matter how often rounds fire, so a faster period only wins more
//     first-proposer races.
//
// Collapse accumulates over minutes of stream, so this test cannot be
// scaled down in time; its three full-scale runs go through the sweep
// engine (parallel on multi-core machines, ~1 min serial) and it is
// skipped with -short.
func TestFullScaleHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (~1 min serial, 3 parallel runs)")
	}
	base := Config{
		Nodes:              270,
		Dist:               MS691,
		Windows:            93,
		StreamStart:        5 * time.Second,
		Drain:              45 * time.Second,
		BacklogProbePeriod: 10 * time.Second,
	}
	sweep, err := RunSweep(Sweep{
		Base: base,
		Variants: []Variant{
			{Name: "std", Mutate: func(c *Config) { c.Protocol = StandardGossip }},
			{Name: "heap", Mutate: func(c *Config) { c.Protocol = HEAP }},
			{Name: "period", Mutate: func(c *Config) { c.Protocol = HEAP; c.AdaptPeriod = true }},
		},
		BaseSeed:    1,
		PairedSeeds: true, // all three protocols face the same network draw
	})
	if err != nil {
		t.Fatal(err)
	}
	stdRes := sweep.CellByVariant("std").Runs[0]
	heapRes := sweep.CellByVariant("heap").Runs[0]
	periodRes := sweep.CellByVariant("period").Runs[0]

	lag := 20 * time.Second
	jf := func(res *Result) float64 {
		return metrics.Mean(res.Run.Quality().JitterFree(lag))
	}
	stdJF, heapJF, periodJF := jf(stdRes), jf(heapRes), jf(periodRes)
	t.Logf("jitter-free@%v: std=%.3f heap=%.3f period=%.3f", lag, stdJF, heapJF, periodJF)

	// (1) Standard gossip collapses on the skewed distribution.
	if stdJF > 0.7 {
		t.Errorf("standard gossip jitter-free %.3f; paper shows collapse (<0.5)", stdJF)
	}
	stdUsage := stdRes.UsageByClass()
	stdPoor, stdRich := stdUsage["512kbps"], stdUsage["3Mbps"]
	t.Logf("std usage: 512kbps=%.2f 3Mbps=%.2f", stdPoor, stdRich)
	if stdPoor < 0.9 {
		t.Errorf("std poor-class usage %.2f; paper shows saturation (~0.88+)", stdPoor)
	}
	if stdRich > 0.75 {
		t.Errorf("std rich-class usage %.2f; paper shows under-use (~0.41)", stdRich)
	}
	// Queue growth (§3.6 symptom): compare an early and a late probe.
	early, late := backlogAt(stdRes, base.StreamStart+15*time.Second),
		backlogAt(stdRes, base.StreamStart+170*time.Second)
	t.Logf("std 512kbps backlog: early=%.1fs late=%.1fs", early, late)
	if late < early+2 {
		t.Errorf("std backlog did not grow (early %.1fs late %.1fs)", early, late)
	}

	// (2) HEAP equalizes and delivers.
	if heapJF < 0.95 {
		t.Errorf("HEAP jitter-free %.3f; paper shows ~clean streams", heapJF)
	}
	if heapJF < stdJF+0.3 {
		t.Errorf("HEAP (%.3f) does not clearly beat standard (%.3f)", heapJF, stdJF)
	}
	heapUsage := heapRes.UsageByClass()
	heapPoor, heapRich := heapUsage["512kbps"], heapUsage["3Mbps"]
	t.Logf("heap usage: 512kbps=%.2f 3Mbps=%.2f", heapPoor, heapRich)
	if heapRich < stdRich+0.2 {
		t.Errorf("HEAP rich usage %.2f not clearly above std %.2f", heapRich, stdRich)
	}
	if heapRich < 0.8*heapPoor {
		t.Errorf("HEAP utilization not equalized: poor %.2f rich %.2f", heapPoor, heapRich)
	}
	heapLate := backlogAt(heapRes, base.StreamStart+170*time.Second)
	if heapLate > late/3 {
		t.Errorf("HEAP late backlog %.1fs not clearly below std %.1fs", heapLate, late)
	}
	// HEAP's stream lag is a few seconds (paper: 13-20 s on PlanetLab; our
	// simulator has no background noise, so lower is expected).
	heapLag := metrics.Mean(heapRes.Run.Quality().MinLags(0))
	t.Logf("HEAP mean min-lag for jitter-free stream: %.1fs", heapLag)
	if heapLag > 15 {
		t.Errorf("HEAP mean min-lag %.1fs; expected seconds", heapLag)
	}

	// (3) Period adaptation is the weaker knob.
	if periodJF < stdJF-0.05 {
		t.Errorf("period adaptation (%.3f) worse than standard (%.3f)", periodJF, stdJF)
	}
	if heapJF < periodJF+0.15 {
		t.Errorf("fanout adaptation (%.3f) should clearly beat period adaptation (%.3f)",
			heapJF, periodJF)
	}
}

// backlogAt returns the 512kbps-class mean backlog of the sample closest to
// the given time.
func backlogAt(res *Result, at time.Duration) float64 {
	best := -1
	for i, s := range res.BacklogSamples {
		if best < 0 || abs64(s.At-at) < abs64(res.BacklogSamples[best].At-at) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return res.BacklogSamples[best].MeanByClass["512kbps"]
}

func abs64(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
