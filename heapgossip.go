package heapgossip

import (
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/misbehave"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Identifiers shared across the public API.
type (
	// NodeID identifies a node.
	NodeID = wire.NodeID
	// PacketID identifies one stream packet in publish order (dense per
	// stream).
	PacketID = wire.PacketID
	// StreamID identifies one dissemination stream. Stream 0 is the
	// default single stream; multi-source deployments run several
	// concurrent streams over one membership and aggregation layer.
	StreamID = wire.StreamID
)

// Protocol selects the dissemination protocol.
type Protocol = scenario.Protocol

// The protocols under evaluation.
const (
	// StandardGossip is Algorithm 1 with a fixed per-node fanout.
	StandardGossip = scenario.StandardGossip
	// HEAP adapts each node's fanout to its relative upload capability.
	HEAP = scenario.HEAP
	// StaticTree is the introduction's baseline: a k-ary push tree with no
	// repair protocol.
	StaticTree = scenario.StaticTree
)

// Scenario describes a simulated experiment; see scenario.Config for every
// knob. The zero value of most fields selects the paper's §3.1 parameters.
type Scenario = scenario.Config

// ScenarioResult carries the measurements of a simulated run.
type ScenarioResult = scenario.Result

// RunScenario executes a simulated experiment and returns its measurements.
func RunScenario(cfg Scenario) (*ScenarioResult, error) {
	return scenario.Run(cfg)
}

// Sweep describes a grid of scenarios (protocol × distribution × node count
// × fanout × churn × seed replicas) executed by RunSweep on a bounded worker
// pool with deterministic per-run seed derivation.
type Sweep = scenario.Sweep

// Variant is a named arbitrary config mutation used as a sweep axis.
type Variant = scenario.Variant

// SweepResult aggregates a sweep's runs into per-cell summary statistics.
type SweepResult = scenario.SweepResult

// CellKey identifies one cell of a sweep grid.
type CellKey = scenario.CellKey

// RunSweep executes a sweep grid in parallel (Workers goroutines, default
// GOMAXPROCS) and aggregates per-cell statistics. Results are byte-for-byte
// reproducible for a fixed sweep definition, independent of worker count.
func RunSweep(sw Sweep) (*SweepResult, error) {
	return scenario.RunSweep(sw)
}

// StreamSpec describes one stream of a multi-source scenario: its id,
// broadcasting node, (staggered) start, length, and geometry. Set
// Scenario.Streams to run K concurrent broadcasters competing for every
// node's upload budget; the fanout-budget allocator divides each node's
// capability across the streams, weighted by stream rate, so aggregate
// sends never exceed the node's capacity.
type StreamSpec = scenario.StreamSpec

// Distribution assigns upload capabilities to nodes.
type Distribution = scenario.Distribution

// The paper's capability distributions (Table 1) plus the uniform dist2 of
// Figure 2 and the LargeScale family's bimodal distribution.
var (
	Ref691     = scenario.Ref691
	Ref724     = scenario.Ref724
	MS691      = scenario.MS691
	Uniform691 = scenario.Uniform691
	Bimodal700 = scenario.Bimodal700
)

// JoinWave is one flash-crowd join: Count nodes join together at At
// (LargeScale family).
type JoinWave = scenario.JoinWave

// ChurnBurst is one correlated failure burst: a fraction of the then-alive
// nodes crash within a short spread (LargeScale family).
type ChurnBurst = scenario.ChurnBurst

// LargeScale builds the large-N base scenario for n nodes: HEAP over Cyclon
// peer sampling on the bimodal distribution with fanout ln(n)+1.4. Add
// JoinWaves / ChurnBursts for the dynamic variants.
func LargeScale(n int, seed int64) Scenario { return scenario.LargeScaleBase(n, seed) }

// LargeScaleXL builds the 100k-1M scenario: LargeScale plus the two knobs
// that matter at that size — a sharded simulator (Scenario.Shards; results
// are byte-identical at any shard count) and a capped per-node capability
// table (Scenario.AggTrackLimit). Pass shards <= 0 for runtime.GOMAXPROCS.
func LargeScaleXL(n int, seed int64, shards int) Scenario {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return scenario.LargeScaleXL(n, seed, shards)
}

// LargeScaleSweep builds the large-N grid (sizes × variants); empty sizes
// default to 1k and 5k nodes.
func LargeScaleSweep(nodes []int, replicas int, seed int64, workers int) Sweep {
	return scenario.LargeScaleSweep(nodes, replicas, seed, workers)
}

// Catastrophic describes the simultaneous mass-failure scenario of §3.6.
type Catastrophic = churn.Catastrophic

// Netem is a declarative description of adverse network conditions —
// Gilbert-Elliott bursty loss, scheduled partitions with heal, latency
// spikes, asymmetric per-direction degradation, and time-varying capability
// traces. Set Scenario.Netem to run a simulation under it, or
// NodeConfig.Netem to apply the same models to real UDP datagrams; with it
// unset both substrates keep their near-ideal default network.
type Netem = netem.Config

// NetemProfile returns a named stock adverse profile ("bursty",
// "partition", "spike", "asym", "captrace", "mixed").
func NetemProfile(name string) (Netem, error) { return netem.Profile(name) }

// NetemProfileNames lists the stock adverse profiles.
func NetemProfileNames() []string { return netem.ProfileNames() }

// AdverseVariants returns one sweep variant per named netem profile (all
// stock profiles when names is empty), for grids that compare protocols
// across network adversity.
func AdverseVariants(names ...string) ([]Variant, error) {
	return scenario.AdverseVariants(names...)
}

// Topology describes a clustered WAN/LAN geometry (internal/topo): a cluster
// count with optional size weights, split intra-/inter-cluster latency bands,
// and jitter. Set Scenario.Topology to embed a run in it; the cluster
// assignment and every pair latency are pure hashes of the run seed.
type Topology = topo.Config

// TopologyVariants returns the topology A/B sweep axis: the clustered
// network under the flat protocol ("topo-blind") and under the split
// intra/inter fanout ("topo-aware").
func TopologyVariants(tc Topology, intra, inter float64) []Variant {
	return scenario.TopologyVariants(tc, intra, inter)
}

// AdaptConfig parameterizes congestion-driven capability re-estimation
// (internal/adapt): a per-node controller that observes real transmit
// pressure — uplink queue backlog, tail drops, achieved throughput — and
// re-advertises an effective capability with hysteresis (multiplicative
// decrease under sustained backlog, slow additive probe upward when
// drained). The zero value selects the stock policy. Set Scenario.Adapt to
// run simulations with the loop closed, or NodeConfig.Adapt to run it on a
// real socket's paced sender.
type AdaptConfig = adapt.Config

// AdaptReadvertisement is one effective-capability change in an adaptation
// trace (ScenarioResult.AdaptStats, Node.AdaptTrace).
type AdaptReadvertisement = adapt.Readvertisement

// MisbehaveConfig parameterizes the deterministic misbehavior detector
// (internal/misbehave): per-peer contribution evidence collected on the
// engine's hot paths feeds two verdict rules — serve deficit (freeriders and
// saturated capability liars) and total unresponsiveness (message droppers) —
// with quarantine wired through peer sampling, proposal handling, and (under
// HEAP) the capability average. The zero value selects the stock thresholds
// in observe-only mode; set Armed for verdicts. Set Scenario.Adversary to
// study detection in simulation, or NodeConfig.Misbehave to run the detector
// on a real socket.
type MisbehaveConfig = misbehave.Config

// MisbehaveEvidence is one peer's monotone contribution record.
type MisbehaveEvidence = misbehave.Evidence

// AdversarySpec configures adversarial node classes (freeriders, capability
// liars, message droppers) and the detector for a simulated run
// (Scenario.Adversary).
type AdversarySpec = scenario.AdversarySpec

// AdversaryVariants returns the three-way sweep axis of adversary studies:
// honest baseline, the adversary mix with detectors observe-only, and the
// same mix with detectors armed.
func AdversaryVariants(spec AdversarySpec) []Variant {
	return scenario.AdversaryVariants(spec)
}

// Geometry describes stream packetization and FEC window structure.
type Geometry = stream.Geometry

// PaperGeometry returns the stream parameters of §3.1 (551 kbps, 1316-byte
// packets, 101+9 FEC windows).
func PaperGeometry() Geometry { return stream.PaperGeometry() }

// Run is the raw measurement record of a run; its methods compute every
// metric in the paper's evaluation.
type Run = metrics.Run

// NodeRecord is one node's delivery record inside a Run.
type NodeRecord = metrics.NodeRecord

// Never marks "not received" / "never decodable" in metric results.
const Never = metrics.Never

// EngineStats counts one node's protocol activity.
type EngineStats = core.Stats

// TelemetryRegistry is the unified metric registry (internal/telemetry):
// lock-free named counters, gauges and histograms plus subsystem collectors,
// scrapeable as one snapshot or in the Prometheus text format. Every Node
// carries one (Node.Telemetry); pass NodeConfig.Telemetry to add your own
// instruments to the same scrape surface.
type TelemetryRegistry = telemetry.Registry

// TelemetryServer is a running introspection HTTP listener (Prometheus-text
// /metrics, /debug/pprof/*, /healthz, /statusz); see Node.StartTelemetry.
type TelemetryServer = telemetry.Server

// NewTelemetryRegistry returns an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// TraceConfig enables dissemination-path tracing: sampled per-packet hop
// records (publish, first request, delivery) captured at every node through
// the engine's zero-cost hook, rng-free and byte-deterministic under the
// simulator's virtual clock. Set Scenario.Trace to collect hop-count and
// per-hop-latency distributions (ScenarioResult.TraceStats).
type TraceConfig = telemetry.TraceConfig

// Seconds converts a metric lag to float seconds (Never maps to +Inf).
func Seconds(d time.Duration) float64 { return metrics.Seconds(d) }
