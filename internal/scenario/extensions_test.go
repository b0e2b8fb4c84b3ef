package scenario

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestFreeridersReduceTheirContribution(t *testing.T) {
	// Freeriders advertise 25% of their true capability; HEAP should assign
	// them proportionally less serve work than honest nodes of the same
	// true capability.
	cfg := Config{
		Nodes:             120,
		Dist:              Ref691,
		Protocol:          HEAP,
		Windows:           10,
		Seed:              11,
		FreeriderFraction: 0.3,
		StreamStart:       5 * time.Second,
		Drain:             20 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var freeServed, honestServed float64
	var freeN, honestN int
	for i := 1; i < cfg.Nodes; i++ {
		if res.CapsKbps[i] != 768 {
			continue // compare within one class for a fair baseline
		}
		served := float64(res.CoreStats[i].EventsServed)
		if res.Freeriders[i] {
			freeServed += served
			freeN++
		} else {
			honestServed += served
			honestN++
		}
	}
	if freeN == 0 || honestN == 0 {
		t.Fatalf("no freeriders (%d) or honest nodes (%d) in 768kbps class", freeN, honestN)
	}
	freeMean, honestMean := freeServed/float64(freeN), honestServed/float64(honestN)
	t.Logf("served per node: freeriders=%.0f honest=%.0f", freeMean, honestMean)
	if freeMean > honestMean*0.6 {
		t.Fatalf("freeriders served %.0f vs honest %.0f; advertising less should shed load", freeMean, honestMean)
	}
	if res.AdvertisedKbps[1] == 0 {
		t.Fatal("advertised capabilities not recorded")
	}
}

func TestAdaptPeriodRequiresHEAP(t *testing.T) {
	_, err := Run(Config{Nodes: 10, Dist: Ref691, Protocol: StandardGossip, AdaptPeriod: true})
	if err == nil {
		t.Fatal("AdaptPeriod accepted for standard gossip")
	}
}

func TestPSSRunDeliversStream(t *testing.T) {
	// HEAP over the Cyclon peer-sampling service instead of full views:
	// partial shuffled views must be uniform enough for the epidemic.
	res, err := Run(Config{
		Nodes:       100,
		Dist:        Ref691,
		Protocol:    HEAP,
		Windows:     8,
		Seed:        13,
		UsePSS:      true,
		StreamStart: 8 * time.Second, // PSS needs a few shuffle rounds first
		Drain:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	share := metrics.Mean(res.Run.Quality().JitterFree(metrics.Never))
	t.Logf("offline jitter-free share with PSS: %.3f", share)
	if share < 0.90 {
		t.Fatalf("PSS-based run decoded only %.1f%% of windows offline", 100*share)
	}
}

func TestSourceBiasRun(t *testing.T) {
	res, err := Run(Config{
		Nodes:       100,
		Dist:        MS691,
		Protocol:    HEAP,
		Windows:     6,
		Seed:        14,
		SourceBias:  true,
		StreamStart: 5 * time.Second,
		Drain:       20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The source's first hops go predominantly to rich nodes, which should
	// be visible in how often rich nodes are proposed to early; at minimum
	// the run must still deliver the stream.
	share := metrics.Mean(res.Run.Quality().JitterFree(10 * time.Second))
	if share < 0.85 {
		t.Fatalf("source-bias run jitter-free share %.3f", share)
	}
}

func TestFreeriderFractionValidation(t *testing.T) {
	if _, err := Run(Config{Nodes: 10, Dist: Ref691, FreeriderFraction: 1.5}); err == nil {
		t.Fatal("freerider fraction 1.5 accepted")
	}
}

func TestAutoFanoutEstimatesSizeAndDelivers(t *testing.T) {
	// Remove the paper's "n known in advance" simplification: fbar is
	// derived as ln(n-hat)+c from continuous push-pull size estimation.
	const n = 120
	res, err := Run(Config{
		Nodes:       n,
		Dist:        Ref691,
		Protocol:    HEAP,
		Windows:     10,
		Seed:        15,
		AutoFanout:  true,
		StreamStart: 8 * time.Second, // let the averager converge first
		Drain:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Size estimates must have converged near n for most nodes.
	good := 0
	for i, est := range res.SizeEstimates {
		if est > n*7/10 && est < n*13/10 {
			good++
		} else if i > 0 && testing.Verbose() {
			t.Logf("node %d size estimate %.1f", i, est)
		}
	}
	if good < n*8/10 {
		t.Fatalf("only %d/%d nodes estimated n within +-30%%", good, n)
	}
	// And the stream must still arrive.
	share := metrics.Mean(res.Run.Quality().JitterFree(10 * time.Second))
	if share < 0.9 {
		t.Fatalf("auto-fanout run jitter-free share %.3f", share)
	}
}

func TestFreezeInjectionDoesNotLoseTheStream(t *testing.T) {
	// Sporadic freezes (§3.5 PlanetLab noise) defer deliveries but must not
	// destroy dissemination: frozen nodes catch up after unfreezing. The
	// frozen/clean pair runs as one paired-seed sweep, so the two cells
	// differ only in the freeze injection.
	sweep, err := RunSweep(Sweep{
		Base: Config{
			Nodes:       100,
			Dist:        Ref724,
			Protocol:    HEAP,
			Windows:     10,
			StreamStart: 5 * time.Second,
			Drain:       30 * time.Second,
		},
		Variants: []Variant{
			{Name: "frozen", Mutate: func(c *Config) { c.FreezesPerNode = 2 }},
			{Name: "clean"},
		},
		BaseSeed:    16,
		PairedSeeds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sweep.CellByVariant("frozen").Runs[0]
	clean := sweep.CellByVariant("clean").Runs[0]
	offline := metrics.Mean(res.Run.Quality().JitterFree(metrics.Never))
	if offline < 0.95 {
		t.Fatalf("offline jitter-free share %.3f with freezes", offline)
	}
	// At a tight lag, freezes should cost some quality vs the freeze-free
	// run (sanity that the injection actually does something).
	frozen10 := metrics.Mean(res.Run.Quality().JitterFree(3 * time.Second))
	clean10 := metrics.Mean(clean.Run.Quality().JitterFree(3 * time.Second))
	t.Logf("jitter-free@3s: frozen=%.3f clean=%.3f", frozen10, clean10)
	if frozen10 > clean10 {
		t.Fatalf("freeze injection had no adverse effect (%.3f vs %.3f)", frozen10, clean10)
	}
}

func TestStaticTreeBaselineFailsWhereGossipSucceeds(t *testing.T) {
	// The paper's introduction: "the difficulty of disseminating through a
	// static tree without any reconstruction even among 30 nodes" — UDP
	// loss compounds down the tree and loaded interior nodes starve their
	// subtrees, while plain gossip with fanout 7 delivers.
	sweep, err := RunSweep(Sweep{
		Base: Config{
			Nodes:       30,
			Dist:        MS691,
			Windows:     10,
			LossRate:    0.01,
			TreeDegree:  3,
			StreamStart: 2 * time.Second,
			Drain:       30 * time.Second,
		},
		Protocols:   []Protocol{StaticTree, StandardGossip},
		BaseSeed:    18,
		PairedSeeds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	treeRes := sweep.Cells[0].Runs[0]
	gossipRes := sweep.Cells[1].Runs[0]
	jf := func(res *Result) float64 {
		return metrics.Mean(res.Run.Quality().JitterFree(10 * time.Second))
	}
	treeJF, gossipJF := jf(treeRes), jf(gossipRes)
	t.Logf("jitter-free@10s: tree=%.3f gossip=%.3f", treeJF, gossipJF)
	if gossipJF < 0.95 {
		t.Fatalf("gossip failed at 30 nodes: %.3f", gossipJF)
	}
	if treeJF > gossipJF-0.1 {
		t.Fatalf("static tree (%.3f) should clearly trail gossip (%.3f)", treeJF, gossipJF)
	}
}

func TestStaticTreeCapacityOrderHelps(t *testing.T) {
	// Placing rich nodes near the root (manual optimization) improves the
	// tree but cannot fix loss compounding.
	base := Config{
		Nodes:       60,
		Dist:        MS691,
		Windows:     8,
		Seed:        19,
		LossRate:    0.005,
		StreamStart: 2 * time.Second,
		Drain:       30 * time.Second,
		Protocol:    StaticTree,
		TreeDegree:  3,
	}
	naive := base
	ordered := base
	ordered.TreeCapacityOrder = true
	naiveRes, err := Run(naive)
	if err != nil {
		t.Fatal(err)
	}
	orderedRes, err := Run(ordered)
	if err != nil {
		t.Fatal(err)
	}
	recv := func(res *Result) float64 {
		return metrics.Mean(res.Run.Quality().JitterFree(metrics.Never))
	}
	naiveJF, orderedJF := recv(naiveRes), recv(orderedRes)
	t.Logf("offline jitter-free: naive=%.3f capacity-ordered=%.3f", naiveJF, orderedJF)
	if orderedJF < naiveJF {
		t.Fatalf("capacity ordering hurt the tree: %.3f vs %.3f", orderedJF, naiveJF)
	}
}
