package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/wire"
)

func adverseBase(seed int64) Config {
	return Config{
		Nodes:    60,
		Protocol: HEAP,
		Dist:     Ref691,
		Windows:  3,
		Seed:     seed,
		Drain:    30 * time.Second,
	}
}

// TestAdverseProfilesRun executes every stock profile end to end at small
// scale: the run must complete, report per-model counters, and the loss
// profiles must actually cost deliveries relative to the clean baseline.
func TestAdverseProfilesRun(t *testing.T) {
	baseline, err := Run(adverseBase(11))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.NetemStats != nil {
		t.Fatal("baseline run reports netem stats without a netem config")
	}
	for _, name := range netem.ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			profile, err := netem.Profile(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := adverseBase(11)
			cfg.Netem = &profile
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.NetemStats) == 0 {
				t.Fatal("no netem stats collected")
			}
			perModel := map[string]netem.ModelStats{}
			for _, st := range res.NetemStats {
				perModel[st.Name] = st
			}
			if perModel["base-loss"].Judged == 0 {
				t.Fatal("base-loss model never consulted")
			}
			switch name {
			case "bursty", "mixed":
				if ge := perModel["gilbert-elliott"]; ge.Drops == 0 {
					t.Errorf("gilbert-elliott dropped nothing: %+v", ge)
				}
				if res.NetStats.MsgsLost <= baseline.NetStats.MsgsLost {
					t.Errorf("bursty loss did not raise MsgsLost: %d vs baseline %d",
						res.NetStats.MsgsLost, baseline.NetStats.MsgsLost)
				}
			case "partition":
				if p := perModel["partition"]; p.Drops == 0 {
					t.Errorf("partition dropped nothing: %+v", p)
				}
			case "spike":
				if s := perModel["spike"]; s.Delayed == 0 {
					t.Errorf("spike delayed nothing: %+v", s)
				}
				if res.NetStats.MsgsNetemDelay == 0 {
					t.Error("MsgsNetemDelay is zero under the spike profile")
				}
			case "asym":
				if rx := perModel["asym-rx"]; rx.Drops == 0 {
					t.Errorf("asym-rx dropped nothing: %+v", rx)
				}
				if tx := perModel["asym-tx"]; tx.Delayed == 0 {
					t.Errorf("asym-tx delayed nothing: %+v", tx)
				}
			}
			// Even adverse, the system must still deliver most of the stream
			// to most nodes (the profiles degrade, they do not sever).
			never := res.Run.Quality().LagCDF().NeverFrac()
			if never > 0.5 {
				t.Errorf("%.0f%% of nodes never reached 99%% delivery under %s", 100*never, name)
			}
		})
	}
}

// TestCapTraceReachesEstimatorsAndUplinks checks the captrace profile's
// plumbing: during the degraded window the traced nodes' HEAP estimates and
// uplink budgets must reflect the advertised drop. We probe mid-run through
// a scheduled callback (Schedule runs inside the event loop).
func TestCapTraceReachesEstimatorsAndUplinks(t *testing.T) {
	cfg := adverseBase(13)
	cfg.Netem = &netem.Config{
		Name: "trace-all",
		CapTraces: []netem.CapTraceSpec{{
			Fraction: 0.9,
			Steps: []netem.CapStep{
				{At: 8 * time.Second, Factor: 0.25},
				{At: 20 * time.Second, Factor: 1},
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the final Factor-1 step the advertised values are restored, so
	// the estimators' *final* self-entries equal the original assignment;
	// the observable trace effect is in the run's delivery dynamics. Assert
	// the plumbing ran by re-running with a non-recovering trace and
	// checking the final estimates dropped.
	cfg2 := adverseBase(13)
	cfg2.Netem = &netem.Config{
		Name: "trace-degrade",
		CapTraces: []netem.CapTraceSpec{{
			Fraction: 0.9,
			Steps:    []netem.CapStep{{At: 8 * time.Second, Factor: 0.25}},
		}},
	}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(vals []float64) float64 {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	recovered, degraded := mean(res.EstimatesKbps[1:]), mean(res2.EstimatesKbps[1:])
	if degraded >= recovered*0.8 {
		t.Fatalf("degrading 90%% of nodes to 25%% capability left bbar at %.0f (recovered run: %.0f)",
			degraded, recovered)
	}
}

// TestCapTraceSkipsBroadcasters names broadcaster 1 of a two-source run in
// a capability trace: sources never degrade, so crippling its uplink to 1%
// must leave every result byte-identical to a no-op (factor 1) trace.
func TestCapTraceSkipsBroadcasters(t *testing.T) {
	traced := func(factor float64) []byte {
		res, err := Run(Config{
			Nodes: 30, Protocol: HEAP, Dist: Ref691, Windows: 2, Seed: 43,
			Drain:   10 * time.Second,
			Streams: []StreamSpec{{}, {Start: 3 * time.Second}},
			Netem: &netem.Config{
				Name: "trace-broadcaster",
				CapTraces: []netem.CapTraceSpec{{
					Nodes: []wire.NodeID{1},
					Steps: []netem.CapStep{{At: 0, Factor: factor}},
				}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, res)
	}
	if !bytes.Equal(traced(1), traced(0.01)) {
		t.Fatal("a capability trace naming broadcaster 1 changed the run")
	}
}

// TestAdverseVariantsSweep runs a tiny grid over the adverse variant axis
// and checks cell labeling and summary plumbing.
func TestAdverseVariantsSweep(t *testing.T) {
	adv, err := AdverseVariants("bursty", "partition")
	if err != nil {
		t.Fatal(err)
	}
	sw := Sweep{
		Base:     adverseBase(0),
		Variants: append([]Variant{{Name: "baseline"}}, adv...),
		BaseSeed: 5,
		DropRuns: true,
	}
	res, err := RunSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	want := []string{"baseline", "adv-bursty", "adv-partition"}
	for i, c := range res.Cells {
		if c.Key.Variant != want[i] {
			t.Errorf("cell %d variant %q, want %q", i, c.Key.Variant, want[i])
		}
		if c.Summary.MeasuredNodes == 0 {
			t.Errorf("cell %s measured no nodes", c.Key)
		}
	}
	if _, err := AdverseVariants("nope"); err == nil {
		t.Fatal("unknown profile accepted by AdverseVariants")
	}
	ls, err := LargeScaleAdverseVariants("bursty")
	if err != nil {
		t.Fatal(err)
	}
	probe := Config{Nodes: 1000}
	ls[0].Mutate(&probe)
	if probe.Netem == nil || probe.Fanout == 0 {
		t.Fatalf("LargeScale adverse variant must set netem and size-derived fanout: %+v", probe)
	}
}

// TestNetemSummaryRendering covers the compact counter line.
func TestNetemSummaryRendering(t *testing.T) {
	if s := NetemSummary(nil); s != "" {
		t.Fatalf("nil stats rendered %q", s)
	}
	stats := []netem.ModelStats{
		{Name: "base-loss", Judged: 100},
		{Name: "gilbert-elliott", Judged: 100, Drops: 7},
		{Name: "spike", Judged: 93, Delayed: 10, DelaySum: time.Second},
	}
	s := NetemSummary(stats)
	for _, want := range []string{"gilbert-elliott:7 dropped", "spike", "10 delayed", "100ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
