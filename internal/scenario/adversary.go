package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/misbehave"
	"repro/internal/netem"
	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/wire"
)

// This file wires internal/misbehave into the scenario layer: adversarial
// node classes materialized deterministically from the run seed (like netem
// node sets), per-node detectors on the honest cohort, detection statistics,
// and the observer-coalition source-anonymity probe.

// AdversarySpec configures adversarial node classes and the misbehavior
// detector for a run. Adversaries are drawn deterministically from the run
// seed out of the non-source population; the three classes are disjoint.
// Class semantics live in internal/misbehave (freeriders drop inbound
// Requests, droppers drop inbound Proposes, liars misstate their capability
// to the aggregation protocol). A liar with a LiarFactor below 1 is the
// paper's §5 freerider: it serves honestly but under-advertises, so HEAP
// gives it a small fanout and it contributes less than its share.
type AdversarySpec struct {
	// FreeriderFraction of non-source nodes consume without serving.
	FreeriderFraction float64
	// LiarFraction of non-source nodes advertise LiarFactor times their
	// real capability from Onset on; a netem trace step scales the lie like
	// any claim. Requires the HEAP protocol (standard gossip ignores
	// advertisements entirely).
	LiarFraction float64
	// DropperFraction of non-source nodes swallow inbound proposals.
	DropperFraction float64
	// Intensity is the fraction of targeted messages actually dropped by
	// freeriders and droppers (partial misbehavior hides better).
	// Default 1.
	Intensity float64
	// LiarFactor is the liars' advertisement multiplier: above 1 a liar
	// over-advertises, below 1 it under-advertises (the §5 freerider).
	// Any positive value but 1. Default 4.
	LiarFactor float64
	// Onset delays all misbehavior: before it, every adversary is honest
	// (sleeper adversaries, the harder detection case). Default 0.
	Onset time.Duration
	// Detect arms the misbehavior detector on every honest non-source node
	// with the given thresholds (the zero misbehave.Config selects the
	// stock policy; Armed is implied). Nil leaves detectors in observe-only
	// mode: evidence and first receipts are still collected — the anonymity
	// probe and evidence dumps work — but no verdicts are issued and the
	// protocol runs untouched. This is the detector-off arm of A/B studies.
	Detect *misbehave.Config
	// CoalitionSizes are the observer-coalition sizes probed by the
	// source-anonymity estimator. Default 1, 2, 4, 8, 16, 32 (clipped to
	// the honest population).
	CoalitionSizes []int
	// CoalitionTrials is how many random coalitions are drawn per size.
	// Default 64.
	CoalitionTrials int
}

// detectQuorum is the fraction of honest detectors that must quarantine a
// node before it counts as detected in AdversaryStats (a single detector's
// verdict is per-pair noise; system-level detection is a quorum property).
const detectQuorum = 0.1

// withDefaults returns a copy with every zero knob filled in.
func (a AdversarySpec) withDefaults() AdversarySpec {
	if a.Intensity == 0 {
		a.Intensity = 1
	}
	if a.LiarFactor == 0 {
		a.LiarFactor = 4
	}
	if len(a.CoalitionSizes) == 0 {
		a.CoalitionSizes = []int{1, 2, 4, 8, 16, 32}
	}
	if a.CoalitionTrials == 0 {
		a.CoalitionTrials = 64
	}
	return a
}

// validateAdversary checks Config.Adversary; called from applyDefaults.
func (c *Config) validateAdversary() error {
	a := c.Adversary
	if a == nil {
		return nil
	}
	if c.Protocol == StaticTree {
		return fmt.Errorf("scenario: adversarial nodes require a gossip protocol (the static tree has no contribution evidence to collect)")
	}
	// Range checks are negated comparisons, so NaN fails them too.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"freerider", a.FreeriderFraction},
		{"liar", a.LiarFraction},
		{"dropper", a.DropperFraction},
	} {
		if !(f.v >= 0 && f.v < 1) {
			return fmt.Errorf("scenario: adversary %s fraction %v outside [0,1)", f.name, f.v)
		}
	}
	if sum := a.FreeriderFraction + a.LiarFraction + a.DropperFraction; sum >= 1 {
		return fmt.Errorf("scenario: adversary fractions sum to %v; the honest cohort must not be empty", sum)
	}
	if a.LiarFraction > 0 && c.Protocol != HEAP {
		return fmt.Errorf("scenario: capability liars require the HEAP protocol (standard gossip ignores advertisements)")
	}
	if !(a.Intensity >= 0 && a.Intensity <= 1) {
		return fmt.Errorf("scenario: adversary intensity %v outside [0,1]", a.Intensity)
	}
	if !(a.LiarFactor >= 0 && a.LiarFactor != 1) {
		return fmt.Errorf("scenario: liar factor %v must be positive and not 1 (or 0 for the default)", a.LiarFactor)
	}
	if a.Onset < 0 {
		return fmt.Errorf("scenario: adversary onset %v must not be negative", a.Onset)
	}
	if a.CoalitionTrials < 0 {
		return fmt.Errorf("scenario: negative coalition trials")
	}
	for _, s := range a.CoalitionSizes {
		if s < 1 {
			return fmt.Errorf("scenario: coalition size %d must be at least 1", s)
		}
	}
	if a.Detect != nil {
		if err := a.Detect.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// adversaryState is one run's materialized adversary assignment plus the
// interceptors built alongside the nodes. The honest cohort's detectors live
// in the nodes' stacks.
type adversaryState struct {
	spec  AdversarySpec
	class []misbehave.Class // dense by node id; ClassHonest for the rest

	freeriders, liars, droppers []wire.NodeID

	interceptors []*misbehave.Interceptor // freeriders and droppers
}

// newAdversaryState draws the adversary node sets from the run seed with
// netem.SplitGroups: one permutation of the non-source population, split
// into disjoint class prefixes, each sorted ascending. Returns nil when the
// config has no adversary.
func newAdversaryState(cfg *Config, total int, sourceNode []bool) *adversaryState {
	if cfg.Adversary == nil {
		return nil
	}
	a := &adversaryState{
		spec:         cfg.Adversary.withDefaults(),
		class:        make([]misbehave.Class, total),
		interceptors: make([]*misbehave.Interceptor, total),
	}
	pool := make([]wire.NodeID, 0, total)
	for i := 0; i < total; i++ {
		if !sourceNode[i] {
			pool = append(pool, wire.NodeID(i))
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x61647672))
	sets := netem.SplitGroups(rng, pool, []float64{
		a.spec.FreeriderFraction, a.spec.LiarFraction, a.spec.DropperFraction,
	})
	a.freeriders, a.liars, a.droppers = sets[0], sets[1], sets[2]
	for k, class := range []misbehave.Class{misbehave.ClassFreerider, misbehave.ClassLiar, misbehave.ClassDropper} {
		for _, id := range sets[k] {
			a.class[id] = class
		}
	}
	return a
}

// armed reports whether the detectors issue verdicts.
func (a *adversaryState) armed() bool { return a.spec.Detect != nil }

// detectorConfig builds one honest node's detector configuration: the
// spec's thresholds (armed) or an observe-only zero config, plus the
// simulator's liveness oracle so crashed peers are never convicted for
// their silence. Nodes not yet joined (flash-crowd waves) read as alive.
func (a *adversaryState) detectorConfig(net *simnet.Network) *misbehave.Config {
	cfg := misbehave.Config{}
	if a.spec.Detect != nil {
		cfg = *a.spec.Detect
		cfg.Armed = true
	}
	cfg.Alive = func(p wire.NodeID) bool {
		return int(p) >= net.NumNodes() || net.Alive(p)
	}
	return &cfg
}

// liarAdvertised returns what a liar with real capability c advertises:
// LiarFactor times c, at least c+1 for a factor above 1 (the lie must show)
// and at least 1 below it (the estimator refuses a zero claim).
func (a *adversaryState) liarAdvertised(c uint32) uint32 {
	v := float64(c) * a.spec.LiarFactor
	if v > math.MaxUint32 {
		v = math.MaxUint32
	}
	adv := uint32(v)
	if a.spec.LiarFactor > 1 && adv <= c {
		adv = c + 1
	}
	return max(adv, 1)
}

// interceptorFor wraps the engine of adversarial node i with its class's
// message-drop policy; honest nodes and liars (whose misbehavior lives at
// the aggregation layer) get the engine unwrapped.
func (a *adversaryState) interceptorFor(i int, inner env.Handler) env.Handler {
	var ic *misbehave.Interceptor
	switch a.class[i] {
	case misbehave.ClassFreerider:
		ic = &misbehave.Interceptor{Inner: inner, DropRequests: a.spec.Intensity, Onset: a.spec.Onset}
	case misbehave.ClassDropper:
		ic = &misbehave.Interceptor{Inner: inner, DropProposes: a.spec.Intensity, Onset: a.spec.Onset}
	default:
		return inner
	}
	a.interceptors[i] = ic
	return ic
}

// ClassDetectionStats summarizes detection of one adversary class.
type ClassDetectionStats struct {
	// Class is the misbehave.Class label.
	Class string
	// Nodes is the class's population.
	Nodes int
	// Detected counts members quarantined by at least the detector quorum
	// at run end; FalseNegatives is the rest.
	Detected       int
	FalseNegatives int
	// DetectedEver counts members that reached the quorum at any point
	// (a release after the stream ends does not undo detection).
	DetectedEver int
	// DetectionRate is Detected / Nodes (0 for an empty class).
	DetectionRate float64
	// MeanLatencySec / MaxLatencySec measure, over ever-detected members,
	// the time from when misbehavior could first be observed (the later of
	// adversary onset and stream start) to quorum.
	MeanLatencySec float64
	MaxLatencySec  float64
}

// CoalitionPoint is one observer-coalition size's source-localization
// result.
type CoalitionPoint struct {
	// Size is the effective coalition size (requested size clipped to the
	// honest population).
	Size int
	// Trials is how many random coalitions were drawn.
	Trials int
	// Hits counts trials whose estimate named the true broadcaster;
	// Probability is Hits / Trials.
	Hits        int
	Probability float64
}

// PeerEvidence pairs a peer id with one detector's evidence record.
type PeerEvidence struct {
	Peer wire.NodeID
	Ev   misbehave.Evidence
}

// AdversaryStats carries everything measured about an adversarial run: who
// the adversaries were, what the detectors concluded and how fast, the
// false-positive record on the honest cohort, and the source-anonymity
// probe. All fields are slices and scalars in deterministic order — the
// struct is part of the run fingerprint in the determinism suite, which gob
// encoding forbids maps in.
type AdversaryStats struct {
	// Freeriders/Liars/Droppers list the materialized adversary node sets
	// in ascending id order.
	Freeriders []wire.NodeID
	Liars      []wire.NodeID
	Droppers   []wire.NodeID

	// DetectorArmed records whether verdicts were enabled (the A/B switch).
	DetectorArmed bool
	// HonestDetectors is how many nodes ran detectors (honest non-sources).
	HonestDetectors int
	// Quorum is the detector count a node must be quarantined by to count
	// as detected (ceil(detectQuorum · HonestDetectors), at least 1).
	Quorum int

	// Classes holds per-class detection summaries in freerider, liar,
	// dropper order.
	Classes []ClassDetectionStats

	// FalsePositives counts honest, non-source, non-crashed nodes
	// quarantined by at least Quorum detectors at run end (releases heal
	// transient verdicts before they ever land here); FalsePositiveIDs
	// lists them.
	FalsePositives   int
	FalsePositiveIDs []wire.NodeID

	// DetectedBy[i] is how many detectors hold node i quarantined at run
	// end. FirstQuorumSec[i] is when node i first reached the quorum
	// (seconds of virtual time; -1 never).
	DetectedBy     []int
	FirstQuorumSec []float64

	// QuarantineEvents / ReleaseEvents total verdict changes across all
	// detectors. ProposesIgnored totals proposals discarded engine-side
	// because the proposer was quarantined; DroppedRequests and
	// DroppedProposes total the adversaries' own discards.
	QuarantineEvents int64
	ReleaseEvents    int64
	ProposesIgnored  int64
	DroppedRequests  int64
	DroppedProposes  int64

	// Localization is the source-anonymity probe: for each observer-
	// coalition size, the probability that ranking candidates by
	// first-receipt order names the true broadcaster.
	Localization []CoalitionPoint

	// Evidence dumps one honest detector's per-peer evidence table
	// (EvidenceNode says whose) — diagnostics, and the fuzz corpus's seed
	// material.
	EvidenceNode wire.NodeID
	Evidence     []PeerEvidence
}

// collectStats assembles AdversaryStats after the run. res must already
// hold the delivery records (crash flags come from them).
func (a *adversaryState) collectStats(cfg *Config, res *Result, nodes []*stack.Node) *AdversaryStats {
	total := len(nodes)
	stats := &AdversaryStats{
		Freeriders:     a.freeriders,
		Liars:          a.liars,
		Droppers:       a.droppers,
		DetectorArmed:  a.armed(),
		DetectedBy:     make([]int, total),
		FirstQuorumSec: make([]float64, total),
	}
	detectors := make([]*misbehave.Detector, total) // honest non-source nodes
	for i, n := range nodes {
		if n.Detector != nil {
			detectors[i] = n.Detector
			stats.HonestDetectors++
		}
	}
	quorum := int(math.Ceil(detectQuorum * float64(stats.HonestDetectors)))
	if quorum < 1 {
		quorum = 1
	}
	stats.Quorum = quorum

	// Per-target first-quarantine times across detectors; the quorum-th
	// smallest is when the system as a whole detected the node.
	times := make([][]time.Duration, total)
	for _, d := range detectors {
		if d == nil {
			continue
		}
		for j := 0; j < total; j++ {
			id := wire.NodeID(j)
			if d.Quarantined(id) {
				stats.DetectedBy[j]++
			}
			if t, ok := d.FirstQuarantinedAt(id); ok {
				times[j] = append(times[j], t)
			}
		}
		stats.QuarantineEvents += d.QuarantineEvents()
		stats.ReleaseEvents += d.ReleaseEvents()
	}
	for j := range stats.FirstQuorumSec {
		stats.FirstQuorumSec[j] = -1
		ts := times[j]
		if len(ts) >= quorum {
			sort.Slice(ts, func(x, y int) bool { return ts[x] < ts[y] })
			stats.FirstQuorumSec[j] = ts[quorum-1].Seconds()
		}
	}

	// Detection latency counts from when misbehavior became observable.
	base := a.spec.Onset
	if start, _ := cfg.streamsSpan(); start > base {
		base = start
	}
	stats.Classes = []ClassDetectionStats{
		classStats(misbehave.ClassFreerider.String(), a.freeriders, stats, quorum, base),
		classStats(misbehave.ClassLiar.String(), a.liars, stats, quorum, base),
		classStats(misbehave.ClassDropper.String(), a.droppers, stats, quorum, base),
	}

	// False positives: honest non-source survivors held at quorum at end.
	for j := 0; j < total; j++ {
		if a.class[j] != misbehave.ClassHonest || detectors[j] == nil {
			continue // adversaries and sources are not false positives
		}
		if res.Run.Nodes[j].Crashed {
			continue
		}
		if stats.DetectedBy[j] >= quorum {
			stats.FalsePositives++
			stats.FalsePositiveIDs = append(stats.FalsePositiveIDs, wire.NodeID(j))
		}
	}

	for _, ic := range a.interceptors {
		if ic != nil {
			stats.DroppedRequests += ic.DroppedRequests
			stats.DroppedProposes += ic.DroppedProposes
		}
	}
	for i := range res.CoreStats {
		stats.ProposesIgnored += res.CoreStats[i].ProposesIgnored
	}

	a.probeLocalization(cfg, stats, detectors)

	// One honest detector's evidence table, for diagnostics and the fuzz
	// corpus; the lowest-id detector keeps the choice deterministic.
	for j, d := range detectors {
		if d == nil {
			continue
		}
		stats.EvidenceNode = wire.NodeID(j)
		for p := 0; p < total; p++ {
			if ev, ok := d.EvidenceOf(wire.NodeID(p)); ok {
				stats.Evidence = append(stats.Evidence, PeerEvidence{Peer: wire.NodeID(p), Ev: ev})
			}
		}
		break
	}
	return stats
}

// classStats summarizes one adversary class's detection record.
func classStats(name string, members []wire.NodeID, stats *AdversaryStats,
	quorum int, base time.Duration) ClassDetectionStats {
	cs := ClassDetectionStats{Class: name, Nodes: len(members)}
	var latSum float64
	for _, id := range members {
		if stats.DetectedBy[id] >= quorum {
			cs.Detected++
		}
		if at := stats.FirstQuorumSec[id]; at >= 0 {
			cs.DetectedEver++
			lat := at - base.Seconds()
			if lat < 0 {
				lat = 0
			}
			latSum += lat
			if lat > cs.MaxLatencySec {
				cs.MaxLatencySec = lat
			}
		}
	}
	cs.FalseNegatives = cs.Nodes - cs.Detected
	if cs.Nodes > 0 {
		cs.DetectionRate = float64(cs.Detected) / float64(cs.Nodes)
	}
	if cs.DetectedEver > 0 {
		cs.MeanLatencySec = latSum / float64(cs.DetectedEver)
	}
	return cs
}

// probeLocalization runs the observer-coalition source-anonymity estimator
// (the gossip-privacy line of PAPERS.md): a coalition of C honest observers
// pools first-receipt records and names the earliest receipt's sender as
// the broadcaster — the strongest estimate order-only observers have. The
// probe is pure post-run analysis on its own rng stream: it perturbs
// nothing, so it runs identically with the detector armed or off.
func (a *adversaryState) probeLocalization(cfg *Config, stats *AdversaryStats, detectors []*misbehave.Detector) {
	if a.spec.CoalitionTrials == 0 {
		return
	}
	pool := make([]wire.NodeID, 0, len(detectors))
	for j, d := range detectors {
		if d == nil {
			continue
		}
		if _, _, ok := d.FirstReceipt(); ok {
			pool = append(pool, wire.NodeID(j))
		}
	}
	if len(pool) == 0 {
		return
	}
	target := cfg.effectiveStreams()[0].Source
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0b5c0a1))
	for _, size := range a.spec.CoalitionSizes {
		if size > len(pool) {
			size = len(pool)
		}
		if len(stats.Localization) > 0 && stats.Localization[len(stats.Localization)-1].Size == size {
			continue // several requested sizes clipped to the same pool
		}
		point := CoalitionPoint{Size: size, Trials: a.spec.CoalitionTrials}
		for t := 0; t < point.Trials; t++ {
			perm := rng.Perm(len(pool))
			best := wire.NodeNone
			var bestAt time.Duration
			var estimate wire.NodeID
			for _, pi := range perm[:size] {
				obs := pool[pi]
				from, at, _ := detectors[obs].FirstReceipt()
				// Strict (time, observer id) order keeps the winner unique
				// regardless of draw order.
				if best == wire.NodeNone || at < bestAt || (at == bestAt && obs < best) {
					best, bestAt, estimate = obs, at, from
				}
			}
			if estimate == target {
				point.Hits++
			}
		}
		point.Probability = float64(point.Hits) / float64(point.Trials)
		stats.Localization = append(stats.Localization, point)
	}
}

// HonestJitterFree returns the mean jitter-free window share at the given
// playback lag over the honest cohort only: adversarial nodes are excluded
// along with the usual source and crashed exclusions. In a run without
// Adversary it equals the plain mean. The A/B acceptance question — does
// the detector give honest nodes their stream back — is about exactly this
// number.
func (r *Result) HonestJitterFree(lag time.Duration) float64 {
	adversarial := make([]bool, len(r.CapsKbps))
	if r.AdversaryStats != nil {
		for _, set := range [][]wire.NodeID{
			r.AdversaryStats.Freeriders, r.AdversaryStats.Liars, r.AdversaryStats.Droppers,
		} {
			for _, id := range set {
				adversarial[id] = true
			}
		}
	}
	honest := r.Run.Quality().Filter(func(n *metrics.NodeRecord) bool { return !adversarial[n.Node] })
	return metrics.Mean(honest.JitterFree(lag))
}

// AdversaryVariants returns the three-way axis of adversary sweeps: the
// honest baseline, the adversary mix with detectors in observe-only mode,
// and the same mix with detectors armed (stock thresholds unless the spec
// carries its own). See cmd/heapsweep's -adversary flag.
func AdversaryVariants(spec AdversarySpec) []Variant {
	off := spec
	off.Detect = nil
	on := spec
	if on.Detect == nil {
		on.Detect = &misbehave.Config{}
	}
	return []Variant{
		{Name: "honest"},
		{Name: "adv-detector-off", Mutate: func(c *Config) { s := off; c.Adversary = &s }},
		{Name: "adv-detector-on", Mutate: func(c *Config) { s := on; c.Adversary = &s }},
	}
}
