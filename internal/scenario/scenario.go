package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/aggregation"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/misbehave"
	"repro/internal/netem"
	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/tree"
	"repro/internal/wire"
)

// Protocol selects the dissemination protocol under test.
type Protocol string

// The protocols under evaluation: the paper's two gossip protocols plus
// the static-tree baseline its introduction dismisses.
const (
	StandardGossip Protocol = "standard" // Algorithm 1, fixed fanout
	HEAP           Protocol = "heap"     // Algorithm 2, capability-adaptive fanout
	StaticTree     Protocol = "tree"     // k-ary push tree, no repair (intro baseline)
)

// Config fully describes one experiment run. The zero value of most fields
// selects the paper's §3.1 parameters.
type Config struct {
	// Name labels the run in reports.
	Name string
	// Nodes is the system size including the source. Default 270.
	Nodes int
	// Protocol selects standard gossip or HEAP. Default StandardGossip.
	Protocol Protocol
	// Fanout is fbar. Default 7 (§3.1).
	Fanout float64
	// Dist assigns upload capabilities. Required unless Unconstrained.
	Dist Distribution
	// Unconstrained disables upload caps entirely (Figure 1).
	Unconstrained bool
	// Windows is the stream length in FEC windows. Default 31 (~60 s).
	Windows int
	// Geometry is the stream geometry. Default stream.PaperGeometry().
	Geometry stream.Geometry
	// Streams configures multi-source operation: K concurrent broadcasters
	// sharing one membership view, one capability aggregation layer, and
	// each node's upload budget. Empty (the default) runs the paper's
	// single stream (stream 0 from node 0). See StreamSpec for per-stream
	// defaults; Windows/Geometry/StreamStart act as the specs' fallbacks.
	// Source nodes get sourceCapKbps and do not adapt their fanout (they
	// are the paper's well-provisioned broadcasters). Incompatible with
	// StaticTree.
	Streams []StreamSpec
	// Seed drives all randomness.
	Seed int64
	// StreamStart delays the source, letting aggregation warm up.
	// Default 5 s.
	StreamStart time.Duration
	// Drain keeps the run going after the last packet so that stragglers
	// and offline metrics settle. Default 60 s.
	Drain time.Duration

	// RetMaxAttempts bounds the request attempts per id. Zero leaves it to
	// core.Config's default, 2. The round period and the retransmission
	// timeout always take core.Config's defaults (200 ms, 5 s).
	RetMaxAttempts int
	// RetSameProposer switches retransmission to the paper-literal
	// same-proposer policy (ablation; see core.Config.RetSameProposer).
	RetSameProposer bool

	// AggPeriod / AggFanout / AggFreshestK parameterize the aggregation
	// protocol (HEAP only). Defaults: 200 ms, 1 peer, 10 entries (§3.1).
	AggPeriod    time.Duration
	AggFanout    int
	AggFreshestK int
	// AggTrackLimit caps each estimator's dense capability table to node
	// ids below the limit (see aggregation.Config.TrackLimit). Capabilities
	// are rng-assigned, so the tracked prefix is an unbiased sample and
	// bbar converges to the same mean; without a limit the per-node tables
	// make aggregation O(n²) system-wide, which is what kept the LargeScale
	// family at 10k. Zero tracks everything.
	AggTrackLimit int

	// LossRate is the per-datagram loss probability. Default 0.1%.
	LossRate float64
	// Netem describes adverse network conditions beyond independent loss:
	// bursty (Gilbert-Elliott) loss, scheduled partitions with heal,
	// latency spikes, asymmetric per-direction degradation, and
	// time-varying capability traces. Nil (the default) keeps the plain
	// LossRate path — run metrics are then byte-identical to a build
	// without netem at all. Stock profiles come from netem.Profile and
	// the Adverse* sweep variants.
	Netem *netem.Config

	// Topology embeds the run in a clustered WAN/LAN geometry
	// (internal/topo): a hash-pure cluster assignment drawn from Seed, with
	// split intra-/inter-cluster latency bands replacing the uniform
	// [latencyMin, latencyMax] draw. Inter-cluster traffic is accounted per
	// node (Result.TopoStats), and a configured Netem may target regions
	// (PartitionSpec.Regions, RegionSpikes) so failures fall along the
	// topology's real cuts. Nil (the default) keeps the paper's uniform
	// pairwise latency model — runs are then byte-identical to a build
	// without the topo package.
	Topology *topo.Config
	// FanoutIntra/FanoutInter split each node's gossip fanout budget by
	// locality: every round proposes to FanoutIntra peers of the node's own
	// cluster and FanoutInter peers across cluster boundaries (HEAP still
	// scales both by relative capability). Both zero (the default) keeps
	// the topology-blind protocol even when Topology is set — the knob that
	// separates "clustered network" from "cluster-aware protocol". Requires
	// Topology, full-view membership (not UsePSS), and a gossip protocol.
	FanoutIntra float64
	FanoutInter float64

	// SourceBias enables the §5 extension: the source's first-hop targets
	// are drawn with probability proportional to advertised capability
	// (oracle knowledge; this is an ablation, not part of HEAP).
	SourceBias bool

	// DegradedFraction of nodes deliver only DegradedFactor of their
	// advertised capability (the overloaded PlanetLab hosts of §3.1; 5-7%
	// in the paper). Defaults 0 / 0.5.
	DegradedFraction float64
	DegradedFactor   float64

	// FreeriderFraction of nodes advertise only freeriderFactor of their
	// true capability to the aggregation protocol while keeping their full
	// capacity — the §5 freeriding threat: HEAP assigns them a small fanout
	// and they contribute less than their share. Default 0.
	FreeriderFraction float64

	// AdaptPeriod switches HEAP's knob from fanout to gossip period
	// (§5 alternative; ablation). Requires Protocol == HEAP.
	AdaptPeriod bool

	// Adversary injects adversarial node classes — freeriders, capability
	// liars, message droppers — and optionally arms the misbehavior
	// detector on the honest cohort (internal/misbehave). Node sets are
	// drawn deterministically from Seed, like netem's. Nil (the default)
	// runs are byte-identical to a build without the misbehave package.
	// Requires a gossip protocol; liars require HEAP. Results land in
	// Result.AdversaryStats.
	Adversary *AdversarySpec

	// Adapt enables congestion-driven capability re-estimation
	// (internal/adapt): every constrained non-source node runs a controller
	// that observes its real uplink pressure — queue backlog and achieved
	// throughput — and re-advertises an effective capability with
	// hysteresis, closing the loop that netem capability traces only script
	// from the outside. The zero adapt.Config selects the stock policy.
	// Under HEAP the re-advertisement reshapes fanout through the normal
	// aggregation gossip; under standard gossip it only rebalances the
	// multi-stream fanout budget (there is no advertisement to adapt). Nil
	// disables adaptation entirely — runs are then byte-identical to a
	// build without the adapt package. Requires constrained uploads and a
	// gossip protocol. Results land in Result.AdaptStats.
	Adapt *adapt.Config

	// Trace enables dissemination-path tracing (internal/telemetry): every
	// node records sampled per-packet hop events — publish, first request,
	// delivery — through the engine's zero-cost trace hook, rng-free and
	// byte-deterministic under the virtual clock. Hop counts are joined
	// offline from the per-node records (nothing is added to the wire
	// format, so fingerprints of untraced runs are untouched). Requires a
	// gossip protocol (the static tree has no propose/request/serve path).
	// Results land in Result.TraceStats.
	Trace *telemetry.TraceConfig

	// AutoFanout removes the paper's "n known in advance" simplification:
	// every node runs the push-pull averaging protocol ([13], §2.2) to
	// continuously estimate the system size n̂ and derives its fanout base
	// as ln(n̂) + fanoutC instead of the static Fanout.
	AutoFanout bool

	// TreeDegree is the static tree's arity (StaticTree only). Default 4.
	TreeDegree int
	// TreeCapacityOrder places high-capability nodes near the root
	// (StaticTree only) instead of arbitrary id order.
	TreeCapacityOrder bool

	// UsePSS replaces the full-membership view with a Cyclon-style
	// peer-sampling service (extension): nodes bootstrap from a few random
	// contacts and sample gossip targets from shuffled partial views of
	// cyclonPSSViewSize entries.
	UsePSS bool

	// Churn optionally injects a catastrophic failure (§3.6).
	Churn *churn.Catastrophic

	// JoinWaves injects flash-crowd joins (LargeScale family): at each
	// wave's At, Count fresh nodes join the running system and start
	// catching up on the stream. Waves must be sorted by At and finish
	// before the run ends. Nodes is the size at time zero; capability
	// assignment covers initial and wave nodes alike. Incompatible with
	// StaticTree (the tree is built once, up front).
	JoinWaves []JoinWave

	// ChurnBursts injects correlated failure bursts (LargeScale family):
	// at each burst's At, a fraction of the then-alive non-source nodes
	// crash within a short spread. Unlike Churn (one catastrophic event
	// with per-pair notification), bursts notify each survivor once per
	// burst — a failure-detector sweep — which keeps the event count O(n)
	// per burst and therefore viable at tens of thousands of nodes.
	ChurnBursts []ChurnBurst

	// VerifyPayloads makes receivers run full FEC reconstruction and check
	// payload contents (slow; used by integration tests).
	VerifyPayloads bool

	// BacklogProbePeriod samples every node's uplink queue depth at this
	// interval (0 disables). The resulting time series is the paper's
	// §3.6 congestion symptom: "upload queues tend to grow larger".
	BacklogProbePeriod time.Duration

	// Shards is the simulator's shard count (simnet.Config.Shards): the
	// event loop splits across that many cores, exchanging cross-shard
	// traffic at latency-lookahead barriers. Results are byte-identical at
	// every shard count; this is purely a wall-clock knob for the
	// LargeScale family. Default 1 (sequential).
	Shards int

	// FreezesPerNode injects that many random freezes per node across the
	// run (the paper's §3.5 "sporadically, some PlanetLab nodes seem
	// temporarily frozen"); during a freeze, deliveries and timers are
	// deferred. Each freeze lasts uniformly 0.5-1.5x freezeMeanDuration.
	// 0 disables.
	FreezesPerNode float64
}

// Model parameters with one value in every experiment: fixed here, not
// Config knobs.
const (
	// latencyMin/latencyMax bound a pair's one-way base delay, drawn
	// uniformly per pair when no Topology is set.
	latencyMin = 10 * time.Millisecond
	latencyMax = 100 * time.Millisecond
	// latencyJitter is the per-message jitter on top of a pair's base delay.
	latencyJitter = 5 * time.Millisecond
	// sourceCapKbps is a source's upload capacity; the source must sustain
	// roughly Fanout times the stream rate (every first-hop proposal is
	// pulled). 10 Mbps mimics the paper's well-provisioned PlanetLab source.
	sourceCapKbps = 10_000
	// freeriderFactor is the share of its true capability a freerider
	// advertises.
	freeriderFactor = 0.25
	// fanoutC is AutoFanout's additive reliability margin c: ln(270)+1.4 ~= 7,
	// the paper's fanout at its scale.
	fanoutC = 1.4
	// cyclonPSSViewSize is the partial view size under UsePSS.
	cyclonPSSViewSize = 24
	// freezeMeanDuration is the mean length of a FreezesPerNode freeze.
	freezeMeanDuration = 2 * time.Second
)

// applyDefaults resolves every zero knob to its documented default, then
// validates the result.
func (c *Config) applyDefaults() error {
	if c.Nodes == 0 {
		c.Nodes = 270
	}
	if c.Protocol == "" {
		c.Protocol = StandardGossip
	}
	if c.Fanout == 0 {
		c.Fanout = 7
	}
	if c.Windows == 0 {
		c.Windows = 31
	}
	if c.Geometry == (stream.Geometry{}) {
		c.Geometry = stream.PaperGeometry()
	}
	if c.StreamStart == 0 {
		c.StreamStart = 5 * time.Second
	}
	if c.Drain == 0 {
		c.Drain = 60 * time.Second
	}
	if c.AggPeriod == 0 {
		c.AggPeriod = 200 * time.Millisecond
	}
	if c.AggFanout == 0 {
		c.AggFanout = 1
	}
	if c.AggFreshestK == 0 {
		c.AggFreshestK = 10
	}
	if c.LossRate == 0 {
		c.LossRate = 0.001
	}
	if c.DegradedFactor == 0 {
		c.DegradedFactor = 0.5
	}
	if c.TreeDegree == 0 {
		c.TreeDegree = 4
	}
	return c.validate()
}

// validate checks the defaulted config, resolving the stream specs on the
// way (their checks need the stream-independent fields settled, and the
// dynamics' checks need the streams).
func (c *Config) validate() error {
	if c.Nodes < 3 {
		return fmt.Errorf("scenario: need at least 3 nodes, got %d", c.Nodes)
	}
	if c.Protocol != StandardGossip && c.Protocol != HEAP && c.Protocol != StaticTree {
		return fmt.Errorf("scenario: unknown protocol %q", c.Protocol)
	}
	if c.Dist == nil && !c.Unconstrained {
		return fmt.Errorf("scenario: a distribution is required unless Unconstrained")
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	// Range checks are negated comparisons, so NaN fails them too.
	if !(c.LossRate >= 0 && c.LossRate < 1) {
		return fmt.Errorf("scenario: loss rate %v outside [0,1)", c.LossRate)
	}
	if !(c.FreeriderFraction >= 0 && c.FreeriderFraction < 1) {
		return fmt.Errorf("scenario: freerider fraction %v outside [0,1)", c.FreeriderFraction)
	}
	if !(c.DegradedFraction >= 0 && c.DegradedFraction <= 1) {
		return fmt.Errorf("scenario: degraded fraction %v outside [0,1]", c.DegradedFraction)
	}
	if !(c.DegradedFactor > 0 && c.DegradedFactor <= 1) {
		return fmt.Errorf("scenario: degraded factor %v outside (0,1]", c.DegradedFactor)
	}
	if c.AggPeriod < 0 || c.AggFanout < 0 || c.AggFreshestK < 0 || c.AggTrackLimit < 0 {
		return fmt.Errorf("scenario: negative aggregation setting (AggPeriod %v, AggFanout %d, AggFreshestK %d, AggTrackLimit %d)",
			c.AggPeriod, c.AggFanout, c.AggFreshestK, c.AggTrackLimit)
	}
	if err := (aggregation.Config{Period: c.AggPeriod, FreshestK: c.AggFreshestK}).Validate(); err != nil {
		return err
	}
	if c.AdaptPeriod && c.Protocol != HEAP {
		return fmt.Errorf("scenario: AdaptPeriod requires the HEAP protocol")
	}
	if c.FreezesPerNode < 0 {
		return fmt.Errorf("scenario: negative freezes per node")
	}
	if c.Netem != nil {
		if err := c.Netem.Validate(); err != nil {
			return err
		}
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	if !(c.FanoutIntra >= 0 && c.FanoutInter >= 0) {
		return fmt.Errorf("scenario: negative split fanout (%v intra, %v inter)",
			c.FanoutIntra, c.FanoutInter)
	}
	if c.FanoutIntra > 0 || c.FanoutInter > 0 {
		if c.Topology == nil {
			return fmt.Errorf("scenario: FanoutIntra/FanoutInter require a Topology")
		}
		if c.UsePSS {
			return fmt.Errorf("scenario: hierarchical fanout requires full-view membership (disable UsePSS)")
		}
		if c.Protocol == StaticTree {
			return fmt.Errorf("scenario: hierarchical fanout requires a gossip protocol")
		}
		if c.SourceBias {
			return fmt.Errorf("scenario: hierarchical fanout is incompatible with SourceBias")
		}
	}
	if c.Trace != nil && c.Protocol == StaticTree {
		return fmt.Errorf("scenario: Trace requires a gossip protocol (the static tree has no propose/request/serve path)")
	}
	if err := c.validateAdapt(); err != nil {
		return err
	}
	if err := c.validateAdversary(); err != nil {
		return err
	}
	if err := c.applyStreamDefaults(); err != nil {
		return err
	}
	return c.validateDynamics()
}

// StreamDuration returns the stream's on-air time.
func (c *Config) StreamDuration() time.Duration {
	last := wire.PacketID(c.Geometry.TotalPackets(c.Windows) - 1)
	return c.Geometry.PublishOffset(last)
}

// Result carries everything measured during one run.
type Result struct {
	Config Config
	// Run holds the delivery records that feed every paper metric; in
	// multi-source runs it is the first stream's record (Run aliases
	// StreamRuns[0]).
	Run *metrics.Run
	// StreamRuns holds one measurement record per stream, in
	// Config.Streams order. Single-stream runs have exactly one entry.
	StreamRuns []*metrics.Run
	// CapsKbps is the true capability per node (source included).
	CapsKbps []uint32
	// AdvertisedKbps is what each node told the aggregation protocol; it
	// differs from CapsKbps only for freeriders.
	AdvertisedKbps []uint32
	// Freeriders marks nodes that under-advertised their capability.
	Freeriders []bool
	// Usage is each node's upload utilization during the streaming phase:
	// bytes actually sent (incl. UDP overhead) over capability (Fig 4).
	// Unconstrained runs report zeros.
	Usage []float64
	// Victims lists nodes killed by churn.
	Victims []wire.NodeID
	// NodeNetStats are final per-node network counters.
	NodeNetStats []simnet.NodeStats
	// CoreStats are final per-node protocol counters.
	CoreStats []core.Stats
	// NetStats are network-wide counters.
	NetStats simnet.Stats
	// EstimatesKbps holds each HEAP node's final bbar estimate (nil for
	// standard gossip).
	EstimatesKbps []float64
	// SizeEstimates holds each node's final n̂ estimate (AutoFanout runs
	// only; nil otherwise).
	SizeEstimates []float64
	// VerifyFailures counts payload verification failures (verify mode).
	VerifyFailures int
	// DecodedWindows counts fully reconstructed windows (verify mode).
	DecodedWindows int
	// BacklogSamples holds the uplink-backlog time series when
	// BacklogProbePeriod is set.
	BacklogSamples []BacklogSample
	// NetemStats holds the per-model drop/delay counters of the run's
	// adverse-network engine (nil when Netem is unset).
	NetemStats []netem.ModelStats
	// AdaptStats holds the re-advertisement traces and final effective
	// capabilities of the adaptation controllers (nil when Adapt is unset).
	AdaptStats *AdaptStats
	// AdversaryStats holds the adversary node sets, detection statistics,
	// and the source-anonymity probe (nil when Adversary is unset).
	AdversaryStats *AdversaryStats
	// TraceStats holds the merged dissemination-path records and their
	// offline hop analysis (nil when Trace is unset).
	TraceStats *TraceStats
	// TopoStats holds the materialized cluster layout and the run's
	// inter-cluster (WAN) traffic accounting (nil when Topology is unset).
	TopoStats *TopoStats
}

// TopoStats summarizes a topology-embedded run: how the seed materialized
// the clusters and how much of the run's traffic crossed them. WAN bytes are
// the cost a clustered deployment actually pays for — the quantity
// hierarchical fanout (FanoutIntra/FanoutInter) exists to reduce.
type TopoStats struct {
	// Clusters is the configured cluster count; Sizes[c] is how many of the
	// run's nodes (including join-wave nodes) the seed assigned to c.
	Clusters int
	Sizes    []int
	// TotalBytes sums every node's sent bytes; InterBytes/InterMsgs count
	// the subset whose destination lay in another cluster.
	TotalBytes int64
	InterBytes int64
	InterMsgs  int64
}

// InterShare is the fraction of sent bytes that crossed a cluster boundary.
func (t *TopoStats) InterShare() float64 {
	if t.TotalBytes == 0 {
		return 0
	}
	return float64(t.InterBytes) / float64(t.TotalBytes)
}

// BacklogSample is one probe of the system's uplink queues.
type BacklogSample struct {
	// At is the sample's virtual time.
	At time.Duration
	// MeanByClass maps capability class to the mean uplink backlog
	// (seconds of queued serialization time) across that class's nodes.
	MeanByClass map[string]float64
	// Max is the largest backlog in the system (seconds).
	Max float64
}

// run is the state of one scenario execution, threaded through Run's phases.
type run struct {
	cfg Config
	// total counts every node that will ever exist: the initial system plus
	// all flash-crowd join waves. Capability assignment, views, and metric
	// collection cover them all; wave nodes simply enter the simulation
	// later. cfg.Nodes remains the size at time zero.
	total int
	// specs is the stream layout: the configured multi-source specs, or the
	// implicit single stream 0 broadcast by node 0. specIdx maps wire-level
	// stream ids to spec indices for the per-node delivery dispatch.
	specs      []StreamSpec
	specIdx    map[wire.StreamID]int
	sourceNode []bool

	caps, advertised []uint32
	effective        []int64 // what each uplink really delivers, bps
	freerider        []bool
	adv              *adversaryState

	net      *simnet.Network
	netem    *netem.Engine
	topol    *topo.Topology
	treeTopo *tree.Topology // StaticTree only
	pssRng   *rand.Rand
	// nodes[i] is node i's stack, nil until its join wave lands. Static-tree
	// nodes carry only Receivers.
	nodes    []*stack.Node
	buildErr error // first failure inside a join-wave callback

	victims              []wire.NodeID
	startBytes, endBytes []int64
	backlogSamples       []BacklogSample
}

// Run executes the scenario and returns its measurements.
func Run(cfg Config) (*Result, error) {
	r, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	return r.collect()
}

// simulate builds the system and runs it to the end of the drain; the
// returned run still holds every node's stack.
func simulate(cfg Config) (*run, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, total: cfg.totalNodes(), specs: cfg.effectiveStreams()}
	r.assignCapabilities()
	if err := r.buildNetwork(); err != nil {
		return nil, err
	}
	if err := r.buildNodes(); err != nil {
		return nil, err
	}
	if err := r.scheduleDynamics(); err != nil {
		return nil, err
	}
	_, streamEnd := cfg.streamsSpan()
	r.net.Run(streamEnd + cfg.Drain)
	if r.buildErr != nil {
		return nil, r.buildErr
	}
	if r.net.NumNodes() != r.total {
		return nil, fmt.Errorf("scenario: %d of %d nodes joined (a wave fell outside the run)",
			r.net.NumNodes(), r.total)
	}
	return r, nil
}

// assignCapabilities decides what every node has, delivers and claims. Source
// nodes are the paper's well-provisioned broadcasters: they get
// sourceCapKbps, never degrade, freeride, or adapt their fanout.
func (r *run) assignCapabilities() {
	cfg, total := &r.cfg, r.total
	setupRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	r.sourceNode = make([]bool, total)
	numSources := 0
	for _, sp := range r.specs {
		if !r.sourceNode[sp.Source] {
			r.sourceNode[sp.Source] = true
			numSources++
		}
	}

	r.caps = make([]uint32, total)
	if cfg.Dist != nil {
		assigned := cfg.Dist.Assign(total-numSources, setupRng)
		j := 0
		for i := range r.caps {
			if !r.sourceNode[i] {
				r.caps[i] = assigned[j]
				j++
			}
		}
	}
	for i := range r.caps {
		if r.sourceNode[i] {
			r.caps[i] = sourceCapKbps
		}
	}
	// Degraded nodes deliver less than they advertise.
	r.effective = make([]int64, total)
	for i, c := range r.caps {
		r.effective[i] = int64(c) * 1000
	}
	if cfg.DegradedFraction > 0 {
		for i := 1; i < total; i++ {
			if !r.sourceNode[i] && setupRng.Float64() < cfg.DegradedFraction {
				r.effective[i] = int64(float64(r.effective[i]) * cfg.DegradedFactor)
			}
		}
	}
	// Freeriders advertise less than they have (keeping full capacity).
	r.advertised = make([]uint32, total)
	copy(r.advertised, r.caps)
	r.freerider = make([]bool, total)
	if cfg.FreeriderFraction > 0 {
		for i := 1; i < total; i++ {
			if !r.sourceNode[i] && setupRng.Float64() < cfg.FreeriderFraction {
				r.freerider[i] = true
				r.advertised[i] = uint32(float64(r.caps[i]) * freeriderFactor)
				if r.advertised[i] == 0 {
					r.advertised[i] = 1
				}
			}
		}
	}

	// Adversarial nodes: the class assignment draws from its own seeded rng
	// (like netem's node sets). Onset-zero liars over-advertise from the
	// first aggregation exchange — their estimators are built on the
	// inflated value; delayed liars are rescheduled after the network
	// exists (scheduleLiars). Where a liar overlaps a legacy freerider
	// pick, the liar's advertisement wins.
	r.adv = newAdversaryState(cfg, total, r.sourceNode)
	if r.adv != nil && r.adv.spec.Onset == 0 {
		for _, id := range r.adv.liars {
			r.advertised[id] = r.adv.liarAdvertised(r.caps[id])
		}
	}
}

// buildNetwork creates the simulated network and everything nodes are built
// against: the netem engine, the topology, the bootstrap directory, and the
// static tree when that is the protocol.
func (r *run) buildNetwork() error {
	cfg := &r.cfg
	netCfg := simnet.Config{
		Seed:     cfg.Seed,
		Latency:  simnet.NewPairwiseLatency(cfg.Seed, latencyMin, latencyMax, latencyJitter),
		LossRate: cfg.LossRate,
		Shards:   cfg.Shards,
	}
	// A configured topology replaces the uniform latency draw with the
	// clustered model (hash-pure, so sharded runs stay exact) and labels
	// every node with its cluster for WAN-byte accounting.
	var err error
	if cfg.Topology != nil {
		if r.topol, err = cfg.Topology.Build(cfg.Seed); err != nil {
			return err
		}
		netCfg.Latency = r.topol
		netCfg.RegionOf = r.topol.ClusterOf
	}
	// Adverse network conditions: a configured netem spec materializes into
	// a per-run engine that absorbs the base loss rate as its first model
	// (same rng draw order, so the zero-config path is untouched).
	if cfg.Netem != nil {
		if r.netem, err = cfg.Netem.Build(r.total, cfg.Seed, cfg.LossRate, netCfg.RegionOf); err != nil {
			return err
		}
		netCfg.Netem = r.netem
	}
	r.net = simnet.New(netCfg)
	r.nodes = make([]*stack.Node, r.total)
	r.pssRng = rand.New(rand.NewSource(cfg.Seed ^ 0x9551))
	r.specIdx = make(map[wire.StreamID]int, len(r.specs))
	for k, sp := range r.specs {
		r.specIdx[sp.ID] = k
	}

	// The static-tree baseline has a fixed topology instead of sampling.
	if cfg.Protocol == StaticTree {
		order := tree.ByID
		if cfg.TreeCapacityOrder {
			order = tree.ByCapacityDesc
		}
		ids := membership.NewDirectory(r.total).IDs()
		r.treeTopo, err = tree.BuildKAry(ids, 0, cfg.TreeDegree, order, r.caps)
	}
	return err
}

// buildNodes boots the time-zero system and schedules the flash-crowd join
// waves: each wave's nodes are built inside one scheduled callback, in id
// order (waves are sorted by time and ids are assigned by arrival, so the id
// ranges are deterministic). Newcomers boot with a view over everyone
// present; existing full-membership views learn the newcomers instantly (the
// bootstrap directory model); PSS views learn them organically through
// shuffles.
func (r *run) buildNodes() error {
	for i := 0; i < r.cfg.Nodes; i++ {
		if err := r.buildNode(i, r.cfg.Nodes); err != nil {
			return err
		}
	}
	nextID := r.cfg.Nodes
	for _, wave := range r.cfg.JoinWaves {
		first, count := nextID, wave.Count
		nextID += wave.Count
		r.net.Schedule(wave.At, func() {
			if r.buildErr != nil {
				return
			}
			present := first + count
			for i := first; i < first+count; i++ {
				if err := r.buildNode(i, present); err != nil {
					r.buildErr = err
					return
				}
			}
			for _, n := range r.nodes[:first] {
				if n.View == nil {
					continue
				}
				for i := first; i < first+count; i++ {
					n.View.Add(wire.NodeID(i))
				}
			}
		})
	}
	return nil
}

// buildNode constructs and registers node i. present is the system size the
// node boots into: initial nodes see the whole time-zero membership,
// flash-crowd joiners see everyone present when their wave lands (their own
// wave included).
func (r *run) buildNode(i, present int) error {
	cfg, id := &r.cfg, wire.NodeID(i)
	rcvs := make([]*stream.Receiver, len(r.specs))
	for k, sp := range r.specs {
		rcv, err := stream.NewReceiver(sp.Geometry, sp.Windows, cfg.VerifyPayloads)
		if err != nil {
			return err
		}
		rcvs[k] = rcv
	}
	// A lone stream 0 keeps the direct upcall (and its zero indirection):
	// there is nothing to dispatch between.
	onDeliver := rcvs[0].OnDeliver
	if len(r.specs) > 1 || r.specs[0].ID != 0 {
		onDeliver = func(ev wire.Event, at time.Duration) {
			if k, ok := r.specIdx[ev.Stream]; ok {
				rcvs[k].OnDeliver(ev, at)
			}
		}
	}

	var node *stack.Node
	var err error
	if cfg.Protocol == StaticTree {
		node, err = r.treeNode(id, onDeliver)
	} else {
		node, err = stack.Build(r.stackSpec(i, present, onDeliver))
	}
	if err != nil {
		return err
	}
	node.Receivers = rcvs
	r.nodes[i] = node

	nodeCfg := simnet.NodeConfig{}
	if !cfg.Unconstrained {
		nodeCfg.UploadBps = r.effective[i]
	}
	if got := r.net.AddNode(node.Handler, nodeCfg); got != id {
		return fmt.Errorf("scenario: node id mismatch: %d != %d", got, id)
	}
	return nil
}

// treeNode assembles a static-tree node: a push engine over the fixed
// topology, plus the stream source at the root. It shares none of the gossip
// stack's wiring.
func (r *run) treeNode(id wire.NodeID, onDeliver core.DeliverFunc) (*stack.Node, error) {
	eng := tree.NewEngine(r.treeTopo, tree.DeliverFunc(onDeliver))
	mux := env.NewMux()
	mux.Register(eng, wire.KindServe)
	if id == 0 {
		src, err := stream.NewSource(stream.SourceConfig{
			Geometry:  r.cfg.Geometry,
			Windows:   r.cfg.Windows,
			StartAt:   r.cfg.StreamStart,
			Publisher: eng,
		})
		if err != nil {
			return nil, err
		}
		mux.Register(src)
	}
	return &stack.Node{Handler: mux}, nil
}

// stackSpec describes gossip node i to the stack builder: what the scenario
// config asks of every node, narrowed to this node's role (source,
// adversary, honest detector) and bound to the simulator's probes.
func (r *run) stackSpec(i, present int, onDeliver core.DeliverFunc) stack.Spec {
	cfg, id, isSource := &r.cfg, wire.NodeID(i), r.sourceNode[i]
	heapNode := cfg.Protocol == HEAP && !isSource
	spec := stack.Spec{
		ID: id,
		Engine: core.Config{
			Fanout:          cfg.Fanout,
			RetMaxAttempts:  cfg.RetMaxAttempts,
			RetSameProposer: cfg.RetSameProposer,
			AdaptPeriod:     cfg.AdaptPeriod && heapNode,
			FanoutIntra:     cfg.FanoutIntra,
			FanoutInter:     cfg.FanoutInter,
			OnDeliver:       onDeliver,
		},
		AdvertisedKbps: r.advertised[i],
		Trace:          cfg.Trace,
	}
	r.membershipFor(&spec, present)
	if !cfg.Unconstrained {
		// The fanout-budget allocator's upload budget; inert with a
		// single stream (see core.Config.UploadKbps). Degraded nodes
		// budget what they actually deliver, not what they advertise.
		spec.Engine.UploadKbps = uint32(r.effective[i] / 1000)
	}
	if cfg.AutoFanout {
		// Continuous size estimation: the first stream's source seeds
		// the average at 1, everyone else at 0; the mean converges
		// to 1/n.
		spec.SizeEstimator = &aggregation.AveragerConfig{}
		if id == r.specs[0].Source {
			spec.SizeEstimator.InitialValue = 1
		}
		spec.FanoutMargin = fanoutC
	}
	if heapNode {
		// Ids are dense below r.total, so a limit of at most r.total tracks
		// the same ids as no limit, and presizes the table for them.
		limit := r.total
		if cfg.AggTrackLimit > 0 {
			limit = min(cfg.AggTrackLimit, limit)
		}
		spec.Aggregation = &aggregation.Config{
			Period:     cfg.AggPeriod,
			Fanout:     cfg.AggFanout,
			FreshestK:  cfg.AggFreshestK,
			TrackLimit: limit,
		}
	}
	if isSource && cfg.SourceBias && spec.View != nil {
		// §5 extension: bias the source's first hop toward rich nodes.
		spec.Weights = r.caps
	}
	if cfg.Adapt != nil && !isSource {
		// Congestion feedback: the controller's ceiling is the node's
		// *advertised* capability (its claim), and its signal is the real
		// uplink queue the simulator maintains — backlog, enqueue-side
		// bytes, queued bytes. Sources never adapt: they are the paper's
		// well-provisioned broadcasters, like every other knob here.
		spec.Adapt = cfg.Adapt
		spec.AdaptSignal = func() adapt.Sample {
			return adapt.Sample{
				Backlog:     r.net.QueueBacklog(id),
				SentBytes:   r.net.NodeStats(id).SentBytes,
				QueuedBytes: r.net.QueueBacklogBytes(id),
			}
		}
	}
	if r.adv != nil {
		// Every honest non-source node runs a misbehavior detector (armed or
		// observe-only per the spec); adversaries and sources run none.
		// Freeriders and droppers receive the protocol through their
		// class's message-drop interceptor.
		if r.adv.class[i] == misbehave.ClassHonest && !isSource {
			spec.Detect = r.adv.detectorConfig(r.net)
		}
		spec.Intercept = func(h env.Handler) env.Handler { return r.adv.interceptorFor(i, h) }
	}
	// Every node opens every configured stream up front: tables are
	// presized and the budget allocator sees the full competing rate
	// from the first round.
	spec.Streams = make([]stack.Stream, len(r.specs))
	for k, sp := range r.specs {
		spec.Streams[k] = stack.Stream{
			SourceConfig: stream.SourceConfig{
				Stream: sp.ID, Geometry: sp.Geometry, Windows: sp.Windows, StartAt: sp.Start,
			},
			Source: sp.Source == id,
		}
	}
	return spec
}

// membershipFor gives the node its peer sampling: a full view by default,
// Cyclon PSS as an extension.
func (r *run) membershipFor(spec *stack.Spec, present int) {
	if r.cfg.UsePSS {
		// No view: churn notification is organic (shuffle timeouts evict
		// dead peers).
		bootstrap := make([]wire.NodeID, 0, 5)
		for len(bootstrap) < 5 {
			if p := wire.NodeID(r.pssRng.Intn(present)); p != spec.ID {
				bootstrap = append(bootstrap, p)
			}
		}
		spec.Cyclon = membership.NewCyclon(membership.CyclonConfig{ViewSize: cyclonPSSViewSize}, bootstrap)
		return
	}
	// The bootstrap directory hands out current membership: nodes
	// already crashed (earlier churn) are excluded, so flash-crowd
	// joiners do not waste fanout on peers that died before they
	// arrived. Ids at or past NumNodes are fellow wave members
	// being built in this same callback — alive by construction.
	peers := make([]wire.NodeID, 0, present)
	for p := wire.NodeID(0); int(p) < present; p++ {
		if int(p) >= r.net.NumNodes() || r.net.Alive(p) {
			peers = append(peers, p)
		}
	}
	// Hierarchical dissemination: cluster-partitioned views feed the split
	// fanout. Topology alone (both split fanouts zero) keeps plain views.
	if r.topol != nil && (r.cfg.FanoutIntra > 0 || r.cfg.FanoutInter > 0) {
		spec.View = membership.NewClusterView(spec.ID, peers, r.topol.ClusterOf)
	} else {
		spec.View = membership.NewView(spec.ID, peers)
	}
}

// scheduleDynamics arms everything that happens to the system while it runs:
// churn, capability traces, delayed liars, the usage snapshots, freezes and
// the backlog probe. The order of Schedule calls is part of the determinism
// contract (same-instant events run in scheduling order).
func (r *run) scheduleDynamics() error {
	cfg, net := &r.cfg, r.net
	if cfg.Churn != nil {
		ch := *cfg.Churn
		// Never kill a broadcaster.
		ch.Protect = append([]wire.NodeID{}, ch.Protect...)
		for _, sp := range r.specs {
			ch.Protect = append(ch.Protect, sp.Source)
		}
		views := make([]*membership.View, net.NumNodes())
		for i := range views {
			views[i] = r.nodes[i].View
		}
		var err error
		r.victims, err = ch.Apply(net, views, rand.New(rand.NewSource(cfg.Seed^0x0ddba11)))
		if err != nil {
			return err
		}
	}
	applyChurnBursts(net, cfg, r.nodes, &r.victims)
	if r.netem != nil {
		r.applyCapTraces(net)
	}
	if r.adv != nil {
		r.adv.scheduleLiars(net, r.caps, r.nodes)
	}

	// Bandwidth-usage sampling during the streaming phase (Fig 4). The
	// sampling window spans all streams (earliest start to latest last
	// packet).
	streamsStart, streamEnd := cfg.streamsSpan()
	r.startBytes = make([]int64, r.total)
	r.endBytes = make([]int64, r.total)
	net.Schedule(streamsStart, func() { r.snapshotSent(r.startBytes) })
	net.Schedule(streamEnd, func() { r.snapshotSent(r.endBytes) })

	r.scheduleFreezes(streamEnd)
	if cfg.BacklogProbePeriod > 0 {
		net.Schedule(streamsStart, func() { r.probeBacklog(streamEnd + cfg.Drain) })
	}
	return nil
}

// snapshotSent records the bytes every joined node has actually transmitted.
// SentBytes counts at enqueue time, so bytes still sitting in a congested
// uplink queue would inflate utilization past 1; subtract the backlog
// (backlog duration × capacity) to obtain bytes on the wire. Wave nodes that
// have not joined yet stay at zero.
func (r *run) snapshotSent(dst []int64) {
	for i := 0; i < r.net.NumNodes(); i++ {
		id := wire.NodeID(i)
		sent := r.net.NodeStats(id).SentBytes
		if eff := r.effective[i]; eff > 0 {
			sent -= int64(r.net.QueueBacklog(id).Seconds() * float64(eff) / 8)
		}
		dst[i] = sent
	}
}

// scheduleFreezes injects the sporadic freezes of §3.5 (PlanetLab noise).
func (r *run) scheduleFreezes(streamEnd time.Duration) {
	cfg, net := &r.cfg, r.net
	if cfg.FreezesPerNode <= 0 {
		return
	}
	freezeRng := rand.New(rand.NewSource(cfg.Seed ^ 0xf0f0))
	runSpan := int64(streamEnd + cfg.Drain/2)
	for i := 1; i < cfg.Nodes; i++ {
		id := wire.NodeID(i)
		count := int(cfg.FreezesPerNode)
		if freezeRng.Float64() < cfg.FreezesPerNode-float64(count) {
			count++
		}
		for k := 0; k < count; k++ {
			at := time.Duration(freezeRng.Int63n(runSpan))
			dur := time.Duration(float64(freezeMeanDuration) * (0.5 + freezeRng.Float64()))
			net.Schedule(at, func() { net.Freeze(id, dur) })
		}
	}
}

// probeBacklog samples every uplink queue (the §3.6 congestion symptom) and
// re-arms itself every BacklogProbePeriod until the run's end.
func (r *run) probeBacklog(until time.Duration) {
	cfg, net := &r.cfg, r.net
	sample := BacklogSample{At: net.Now(), MeanByClass: make(map[string]float64)}
	counts := make(map[string]int)
	for i := 1; i < net.NumNodes(); i++ {
		backlog := net.QueueBacklog(wire.NodeID(i)).Seconds()
		class := "all"
		if cfg.Dist != nil {
			class = cfg.Dist.ClassOf(r.caps[i])
		}
		sample.MeanByClass[class] += backlog
		counts[class]++
		if r.effective[i] < int64(r.caps[i])*1000 {
			// Degraded nodes additionally pool under the "degraded"
			// pseudo-class: the knife-edge studies (sens-degraded,
			// the adaptation artifact) track exactly this cohort's
			// queues, which the capability classes average away.
			sample.MeanByClass["degraded"] += backlog
			counts["degraded"]++
		}
		if backlog > sample.Max {
			sample.Max = backlog
		}
	}
	for class, sum := range sample.MeanByClass {
		sample.MeanByClass[class] = sum / float64(counts[class])
	}
	r.backlogSamples = append(r.backlogSamples, sample)
	if net.Now() < until {
		net.Schedule(net.Now()+cfg.BacklogProbePeriod, func() { r.probeBacklog(until) })
	}
}

// collect turns the finished run into its Result.
func (r *run) collect() (*Result, error) {
	cfg, net, caps, nodes := r.cfg, r.net, r.caps, r.total

	victimSet := make(map[wire.NodeID]bool, len(r.victims))
	for _, v := range r.victims {
		victimSet[v] = true
	}

	res := &Result{
		Config:         cfg,
		CapsKbps:       caps,
		AdvertisedKbps: r.advertised,
		Freeriders:     r.freerider,
		Usage:          make([]float64, nodes),
		Victims:        r.victims,
		NodeNetStats:   make([]simnet.NodeStats, nodes),
		CoreStats:      make([]core.Stats, nodes),
		NetStats:       net.Stats(),
		BacklogSamples: r.backlogSamples,
	}
	if cfg.Protocol == HEAP {
		res.EstimatesKbps = make([]float64, nodes)
	}
	if cfg.AutoFanout {
		res.SizeEstimates = make([]float64, nodes)
	}

	streamsStart, streamsEnd := cfg.streamsSpan()
	streamSecs := (streamsEnd - streamsStart).Seconds()
	for i, n := range r.nodes {
		res.NodeNetStats[i] = net.NodeStats(wire.NodeID(i))
		if n.Engine != nil {
			res.CoreStats[i] = n.Engine.Stats()
		}
		if n.Estimator != nil {
			res.EstimatesKbps[i] = n.Estimator.EstimateKbps()
		}
		if n.Averager != nil {
			res.SizeEstimates[i] = n.Averager.SizeEstimate()
		}
		if !cfg.Unconstrained && streamSecs > 0 && caps[i] > 0 {
			sentBits := float64(r.endBytes[i]-r.startBytes[i]) * 8
			res.Usage[i] = sentBits / (float64(caps[i]) * 1000 * streamSecs)
		}
		for _, rcv := range n.Receivers {
			res.VerifyFailures += rcv.VerifyFailures
			res.DecodedWindows += rcv.DecodedWindows
		}
	}

	// One measurement record per stream; each stream excludes its own
	// broadcaster (which trivially has the whole stream) and includes every
	// other node, other streams' sources included.
	for k, sp := range r.specs {
		totalPkts := sp.Geometry.TotalPackets(sp.Windows)
		publishAt := make([]time.Duration, totalPkts)
		for id := 0; id < totalPkts; id++ {
			publishAt[id] = sp.Start + sp.Geometry.PublishOffset(wire.PacketID(id))
		}
		run := &metrics.Run{
			Geometry:  sp.Geometry,
			Windows:   sp.Windows,
			PublishAt: publishAt,
		}
		for i, n := range r.nodes {
			id := wire.NodeID(i)
			className := "all"
			if cfg.Dist != nil {
				className = cfg.Dist.ClassOf(caps[i])
			}
			run.Nodes = append(run.Nodes, metrics.NodeRecord{
				Node:     id,
				Class:    className,
				CapKbps:  caps[i],
				Recv:     n.Receivers[k].Records(),
				Excluded: id == sp.Source,
				Crashed:  victimSet[id] || res.NodeNetStats[i].Crashed,
			})
		}
		if err := run.Validate(); err != nil {
			return nil, err
		}
		res.StreamRuns = append(res.StreamRuns, run)
	}
	res.Run = res.StreamRuns[0]
	r.collectOptional(res)
	return res, nil
}

// collectOptional fills the Result blocks that exist only when their feature
// ran.
func (r *run) collectOptional(res *Result) {
	if r.netem != nil {
		res.NetemStats = r.netem.Stats()
	}
	if r.cfg.Adapt != nil {
		res.AdaptStats = collectAdaptStats(r.nodes)
	}
	if r.adv != nil {
		res.AdversaryStats = r.adv.collectStats(&r.cfg, res, r.nodes)
	}
	if r.cfg.Trace != nil {
		res.TraceStats = collectTraceStats(r.nodes)
	}
	if r.topol != nil {
		ts := &TopoStats{Clusters: r.topol.Clusters(), Sizes: make([]int, r.topol.Clusters())}
		for i := range r.nodes {
			ts.Sizes[r.topol.ClusterOf(wire.NodeID(i))]++
			ns := &res.NodeNetStats[i]
			ts.TotalBytes += ns.SentBytes
			ts.InterBytes += ns.InterRegionBytes
			ts.InterMsgs += ns.InterRegionMsgs
		}
		res.TopoStats = ts
	}
}
