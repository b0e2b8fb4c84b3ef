package scenario

import (
	"math"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/misbehave"
	"repro/internal/netem"
	"repro/internal/wire"
)

func TestAdversaryConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := deterministicBase(1)
		cfg.Adversary = &AdversarySpec{FreeriderFraction: 0.1}
		return cfg
	}
	cfg := base()
	cfg.Protocol = StaticTree
	if _, err := Run(cfg); err == nil {
		t.Error("adversary with the static tree accepted")
	}
	cfg = base()
	cfg.Protocol = StandardGossip
	cfg.Adversary.LiarFraction = 0.1
	if _, err := Run(cfg); err == nil {
		t.Error("capability liars without HEAP accepted")
	}
	cfg = base()
	cfg.Adversary.FreeriderFraction = 1.2
	if _, err := Run(cfg); err == nil {
		t.Error("freerider fraction above 1 accepted")
	}
	cfg = base()
	cfg.Adversary.FreeriderFraction = 0.5
	cfg.Adversary.DropperFraction = 0.6
	if _, err := Run(cfg); err == nil {
		t.Error("adversary fractions summing past 1 accepted")
	}
	cfg = base()
	cfg.Adversary.Intensity = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("intensity above 1 accepted")
	}
	cfg = base()
	cfg.Adversary.LiarFactor = 0.5
	if _, err := Run(cfg); err == nil {
		t.Error("liar factor below 1 accepted")
	}
	cfg = base()
	cfg.Adversary.Detect = &misbehave.Config{ServeRatioFloor: 0.9, ReleaseRatio: 0.8}
	if _, err := Run(cfg); err == nil {
		t.Error("release ratio below the quarantine floor accepted")
	}
}

// TestNaNKnobsRefused feeds NaN to every float knob whose range check used
// to be written as `v < 0 || v >= 1`, which NaN passes: each must be an
// error, not a makeslice panic (freerider fraction), a simnet panic
// (degraded factor) or a run that silently ignores the knob. The degraded
// knobs also get the range check they lacked.
func TestNaNKnobsRefused(t *testing.T) {
	nan := math.NaN()
	for name, mutate := range map[string]func(*Config){
		"adversary FreeriderFraction": func(c *Config) { c.Adversary = &AdversarySpec{FreeriderFraction: nan} },
		"adversary LiarFraction":      func(c *Config) { c.Adversary = &AdversarySpec{LiarFraction: nan} },
		"adversary DropperFraction":   func(c *Config) { c.Adversary = &AdversarySpec{DropperFraction: nan} },
		"adversary Intensity":         func(c *Config) { c.Adversary = &AdversarySpec{DropperFraction: 0.1, Intensity: nan} },
		"adversary LiarFactor":        func(c *Config) { c.Adversary = &AdversarySpec{LiarFraction: 0.1, LiarFactor: nan} },
		"DegradedFraction":            func(c *Config) { c.DegradedFraction = nan },
		"DegradedFactor":              func(c *Config) { c.DegradedFraction, c.DegradedFactor = 0.1, nan },
		"DegradedFraction 1.5":        func(c *Config) { c.DegradedFraction = 1.5 },
		"DegradedFactor -0.5":         func(c *Config) { c.DegradedFraction, c.DegradedFactor = 0.1, -0.5 },
		"DegradedFactor 1.5":          func(c *Config) { c.DegradedFraction, c.DegradedFactor = 0.1, 1.5 },
		"FreeriderFraction":           func(c *Config) { c.FreeriderFraction = nan },
		"Fanout":                      func(c *Config) { c.Fanout = nan },
		"FanoutIntra":                 func(c *Config) { c.FanoutIntra = nan },
		"LossRate":                    func(c *Config) { c.LossRate = nan },
		"LossRate 1":                  func(c *Config) { c.LossRate = 1 },
		"LossRate -0.1":               func(c *Config) { c.LossRate = -0.1 },
		"churn burst Fraction": func(c *Config) {
			c.ChurnBursts = []ChurnBurst{{At: time.Second, Fraction: nan}}
		},
	} {
		cfg := Config{Nodes: 10, Dist: Ref691, Protocol: HEAP, Windows: 1}
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzAdversarySpec checks that an AdversarySpec validation accepts builds its
// adversary state — the class draw, every node's interceptor, the liars'
// inflated advertisements — without panicking.
func FuzzAdversarySpec(f *testing.F) {
	f.Add(0.1, 0.1, 0.1, 1.0, 4.0, int64(0), 64)
	f.Add(0.3, 0.0, 0.0, 0.5, 0.0, int64(time.Second), 1)
	f.Add(0.0, 0.9, 0.0, 0.0, 1e300, int64(0), 0)
	f.Add(1e-9, 1e-9, 0.99, 1.0, 1.0000001, int64(5), 3)
	f.Add(math.NaN(), 0.0, 0.0, 1.0, 4.0, int64(0), 64)
	f.Fuzz(func(t *testing.T, free, liar, drop, intensity, factor float64, onset int64, trials int) {
		cfg := Config{Nodes: 10, Dist: Ref691, Protocol: HEAP, Seed: onset, Adversary: &AdversarySpec{
			FreeriderFraction: free, LiarFraction: liar, DropperFraction: drop,
			Intensity: intensity, LiarFactor: factor,
			Onset: time.Duration(onset), CoalitionTrials: trials,
		}}
		if cfg.applyDefaults() != nil {
			return
		}
		sourceNode := make([]bool, cfg.Nodes)
		sourceNode[0] = true
		a := newAdversaryState(&cfg, cfg.Nodes, sourceNode)
		if n := len(a.freeriders) + len(a.liars) + len(a.droppers); n > cfg.Nodes-1 {
			t.Fatalf("%d adversaries among %d non-source nodes", n, cfg.Nodes-1)
		}
		for i := range cfg.Nodes {
			a.interceptorFor(i, env.HandlerFunc(func(wire.NodeID, wire.Message) {}))
		}
		for _, c := range []uint32{1, 691, math.MaxUint32 - 1} {
			if adv := a.liarAdvertised(c); adv <= c {
				t.Fatalf("liar with capability %d advertises %d", c, adv)
			}
		}
	})
}

// adversaryBase is the reduced-scale adversarial configuration: HEAP on the
// paper's most skewed distribution, mid-length stream. (The full-scale A/B
// is the `adversary` report artifact.)
func adversaryBase(seed int64) Config {
	return Config{
		Nodes:    120,
		Protocol: HEAP,
		Dist:     MS691,
		Windows:  24,
		Seed:     seed,
		Drain:    40 * time.Second,
	}
}

// TestAdversaryFreeriderDetection is the scenario-level acceptance check
// (repeated at paper scale in the committed artifact): with 10% freeriders,
// armed detectors quarantine at least 90% of them within the run, convict
// no honest node, and hand honest nodes their jitter-free delivery back to
// within 2 points of the no-adversary baseline.
func TestAdversaryFreeriderDetection(t *testing.T) {
	honest, err := Run(adversaryBase(7))
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := adversaryBase(7)
	cfgOff.Adversary = &AdversarySpec{FreeriderFraction: 0.1}
	off, err := Run(cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	cfgOn := adversaryBase(7)
	cfgOn.Adversary = &AdversarySpec{FreeriderFraction: 0.1, Detect: &misbehave.Config{}}
	on, err := Run(cfgOn)
	if err != nil {
		t.Fatal(err)
	}

	stats := on.AdversaryStats
	if stats == nil {
		t.Fatal("adversarial run returned no AdversaryStats")
	}
	if !stats.DetectorArmed || stats.HonestDetectors == 0 {
		t.Fatalf("detectors not armed: %+v", stats)
	}
	fr := stats.Classes[0]
	if fr.Class != "freerider" || fr.Nodes == 0 {
		t.Fatalf("freerider class stats missing: %+v", stats.Classes)
	}
	if fr.DetectionRate < 0.9 {
		t.Errorf("freerider detection rate %.2f (%d/%d), want >= 0.9",
			fr.DetectionRate, fr.Detected, fr.Nodes)
	}
	if stats.FalsePositives != 0 {
		t.Errorf("%d false positives on the honest cohort: %v",
			stats.FalsePositives, stats.FalsePositiveIDs)
	}
	for _, id := range stats.Freeriders {
		if at := stats.FirstQuorumSec[id]; at >= 0 && fr.MeanLatencySec < 0 {
			t.Errorf("freerider %d detected at %.1fs but mean latency is negative", id, at)
		}
	}

	// The detector-off arm must measure the damage, not fix it; armed
	// detectors must recover honest delivery to near the honest baseline.
	lag := 10 * time.Second
	hJF, offJF, onJF := honest.HonestJitterFree(lag), off.HonestJitterFree(lag), on.HonestJitterFree(lag)
	if off.AdversaryStats == nil || off.AdversaryStats.DetectorArmed {
		t.Fatal("detector-off arm is mislabeled")
	}
	if off.AdversaryStats.QuarantineEvents != 0 {
		t.Errorf("observe-only detectors issued %d quarantines", off.AdversaryStats.QuarantineEvents)
	}
	if onJF < hJF-0.02 {
		t.Errorf("honest jitter-free share with detector on = %.4f, want within 0.02 of honest baseline %.4f (detector off: %.4f)",
			onJF, hJF, offJF)
	}
	if stats.DroppedRequests == 0 {
		t.Error("freeriders dropped no requests; the adversary never engaged")
	}
}

// TestAdversaryDropperDetection checks the unresponsiveness rule: full
// droppers never request and never propose, so the honest cohort convicts
// them, again with a clean honest cohort.
func TestAdversaryDropperDetection(t *testing.T) {
	cfg := adversaryBase(13)
	cfg.Adversary = &AdversarySpec{DropperFraction: 0.1, Detect: &misbehave.Config{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.AdversaryStats
	dr := stats.Classes[2]
	if dr.Class != "dropper" || dr.Nodes == 0 {
		t.Fatalf("dropper class stats missing: %+v", stats.Classes)
	}
	if dr.DetectionRate < 0.9 {
		t.Errorf("dropper detection rate %.2f (%d/%d), want >= 0.9",
			dr.DetectionRate, dr.Detected, dr.Nodes)
	}
	if stats.FalsePositives != 0 {
		t.Errorf("%d false positives: %v", stats.FalsePositives, stats.FalsePositiveIDs)
	}
	if stats.DroppedProposes == 0 {
		t.Error("droppers dropped no proposals; the adversary never engaged")
	}
}

// TestAdversaryLiarPenalty checks the liar path end to end: liars
// over-advertise (visible in Result.AdvertisedKbps), and armed detectors
// convict a meaningful share of them through the serve-deficit rule — a
// liar's real uplink cannot carry the serve load its inflated fanout
// attracts, so requests to it time out.
func TestAdversaryLiarPenalty(t *testing.T) {
	cfg := adversaryBase(17)
	cfg.Adversary = &AdversarySpec{LiarFraction: 0.1, Detect: &misbehave.Config{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.AdversaryStats
	if len(stats.Liars) == 0 {
		t.Fatal("no liars materialized")
	}
	for _, id := range stats.Liars {
		if res.AdvertisedKbps[id] <= res.CapsKbps[id] {
			t.Fatalf("liar %d advertises %d <= real %d", id, res.AdvertisedKbps[id], res.CapsKbps[id])
		}
	}
	if stats.FalsePositives != 0 {
		t.Errorf("%d false positives: %v", stats.FalsePositives, stats.FalsePositiveIDs)
	}
}

// TestAdversaryObserveOnly pins the detector-off contract: evidence and the
// anonymity probe work, but no verdicts are ever issued and the protocol
// statistics carry no quarantine side effects.
func TestAdversaryObserveOnly(t *testing.T) {
	cfg := adversaryBase(19)
	cfg.Windows = 8
	cfg.Adversary = &AdversarySpec{FreeriderFraction: 0.1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.AdversaryStats
	if stats.DetectorArmed {
		t.Fatal("nil Detect armed the detector")
	}
	if stats.QuarantineEvents != 0 || stats.ReleaseEvents != 0 || stats.ProposesIgnored != 0 {
		t.Errorf("observe-only run has verdict side effects: %+v", stats)
	}
	for i, at := range stats.FirstQuorumSec {
		if at != -1 {
			t.Fatalf("node %d reached quorum in an observe-only run", i)
		}
	}
	if len(stats.Localization) == 0 {
		t.Error("observe-only run lost the anonymity probe")
	}
	if len(stats.Evidence) == 0 {
		t.Error("observe-only run collected no evidence")
	}
}

// TestAdversaryHonestDegradedFalsePositives is the satellite's FP bound on
// an honest-but-degraded cohort: no adversaries at all, but the
// captrace-silent profile drops real capacity out from under a fifth of
// the nodes mid-run. Late serves must exonerate them — the armed detector
// must convict no one.
func TestAdversaryHonestDegradedFalsePositives(t *testing.T) {
	cfg := adversaryBase(23)
	p, err := netem.Profile("captrace-silent")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Netem = &p
	cfg.DegradedFraction = 0.2
	cfg.DegradedFactor = 0.35
	cfg.Adversary = &AdversarySpec{Detect: &misbehave.Config{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.AdversaryStats
	if stats.FalsePositives != 0 {
		t.Errorf("honest-but-degraded cohort produced %d false positives: %v",
			stats.FalsePositives, stats.FalsePositiveIDs)
	}
	for _, cs := range stats.Classes {
		if cs.Nodes != 0 {
			t.Fatalf("adversary class %s materialized without a fraction", cs.Class)
		}
	}
}

// TestAdversaryLocalizationProbe checks the observer-coalition estimator's
// basic shape: probabilities are well-formed, the largest coalition
// localizes at least as well as the smallest (within trial noise), and the
// probe is a pure function of the seed.
func TestAdversaryLocalizationProbe(t *testing.T) {
	cfg := adversaryBase(29)
	cfg.Windows = 8
	cfg.Adversary = &AdversarySpec{FreeriderFraction: 0.05,
		CoalitionSizes: []int{1, 4, 16, 64}, CoalitionTrials: 100}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loc := res.AdversaryStats.Localization
	if len(loc) != 4 {
		t.Fatalf("%d localization points, want 4", len(loc))
	}
	for _, pt := range loc {
		if pt.Probability < 0 || pt.Probability > 1 || pt.Hits > pt.Trials {
			t.Fatalf("malformed localization point %+v", pt)
		}
	}
	if loc[len(loc)-1].Probability < loc[0].Probability-0.05 {
		t.Errorf("localization got worse with more observers: %v", loc)
	}
	if loc[len(loc)-1].Probability == 0 {
		t.Error("a 64-observer coalition never localized the source; the probe looks inert")
	}

	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loc {
		if *(&loc[i]) != again.AdversaryStats.Localization[i] {
			t.Fatalf("localization probe is not deterministic: %+v vs %+v",
				loc[i], again.AdversaryStats.Localization[i])
		}
	}
}

// TestAdversarySleeperOnset checks onset gating: adversaries that turn
// mid-run are honest before onset (no drops, no verdicts) and detected
// after it.
func TestAdversarySleeperOnset(t *testing.T) {
	cfg := adversaryBase(31)
	cfg.Adversary = &AdversarySpec{FreeriderFraction: 0.1, Onset: 20 * time.Second,
		Detect: &misbehave.Config{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.AdversaryStats
	for _, id := range stats.Freeriders {
		if at := stats.FirstQuorumSec[id]; at >= 0 && at < 20 {
			t.Fatalf("freerider %d reached quorum at %.1fs, before its %.0fs onset", id, at, 20.0)
		}
	}
	fr := stats.Classes[0]
	if fr.DetectedEver == 0 {
		t.Error("no sleeper freerider was ever detected after onset")
	}
	if stats.FalsePositives != 0 {
		t.Errorf("%d false positives: %v", stats.FalsePositives, stats.FalsePositiveIDs)
	}
}

// TestAdversaryMaterializationDeterminism pins that the class assignment is
// a pure function of the seed, disjoint across classes, sorted, and never
// touches a source.
func TestAdversaryMaterializationDeterminism(t *testing.T) {
	cfg := adversaryBase(37)
	cfg.Windows = 2
	cfg.Adversary = &AdversarySpec{FreeriderFraction: 0.1, LiarFraction: 0.1, DropperFraction: 0.1}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[wire.NodeID]bool{}
	for si, set := range [][]wire.NodeID{
		a.AdversaryStats.Freeriders, a.AdversaryStats.Liars, a.AdversaryStats.Droppers,
	} {
		bSet := [][]wire.NodeID{
			b.AdversaryStats.Freeriders, b.AdversaryStats.Liars, b.AdversaryStats.Droppers,
		}[si]
		if len(set) != len(bSet) {
			t.Fatalf("class %d sizes differ across repeats", si)
		}
		for i, id := range set {
			if id != bSet[i] {
				t.Fatalf("class %d differs across repeats: %v vs %v", si, set, bSet)
			}
			if i > 0 && set[i-1] >= id {
				t.Fatalf("class %d not sorted ascending: %v", si, set)
			}
			if seen[id] {
				t.Fatalf("node %d in two adversary classes", id)
			}
			seen[id] = true
			if id == 0 {
				t.Fatal("the source was made adversarial")
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no adversaries materialized")
	}
}
