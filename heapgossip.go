package heapgossip

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/misbehave"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/telemetry"
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

// SweepResult aggregates a sweep's runs into per-cell summary statistics.
type SweepResult = scenario.SweepResult

// RunSweep executes a sweep grid in parallel (Workers goroutines, default
// GOMAXPROCS) and aggregates per-cell statistics. Results are byte-for-byte
// reproducible for a fixed sweep definition, independent of worker count.
func RunSweep(sw Sweep) (*SweepResult, error) {
	return scenario.RunSweep(sw)
}

// Distribution assigns upload capabilities to nodes.
type Distribution = scenario.Distribution

// The paper's capability distributions (Table 1) plus the uniform dist2 of
// Figure 2.
var (
	Ref691     = scenario.Ref691
	Ref724     = scenario.Ref724
	MS691      = scenario.MS691
	Uniform691 = scenario.Uniform691
)

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

// AdaptConfig parameterizes congestion-driven capability re-estimation
// (internal/adapt): a per-node controller that observes real transmit
// pressure — uplink queue backlog, tail drops, achieved throughput — and
// re-advertises an effective capability with hysteresis (multiplicative
// decrease under sustained backlog, slow additive probe upward when
// drained). The zero value selects the stock policy. Set Scenario.Adapt to
// run simulations with the loop closed, or NodeConfig.Adapt to run it on a
// real socket's paced sender.
type AdaptConfig = adapt.Config

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

// Seconds converts a metric lag to float seconds (Never maps to +Inf).
func Seconds(d time.Duration) float64 { return metrics.Seconds(d) }
