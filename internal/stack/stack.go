// Package stack assembles the protocol stack every gossip node runs — the
// paper's three-phase dissemination engine over capability aggregation
// (Algorithms 1-2) plus this repo's optional parts — for any substrate.
// scenario.Run builds simulated nodes through it and StartNode builds UDP
// nodes through it, so there is one wiring and one wiring order.
//
// The order is part of the determinism contract: handlers start in mux
// registration order and each Start draws its phase from the node's rng, so
// Build always registers peer sampling, size averager, capability estimator,
// engine, then stream sources.
package stack

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/misbehave"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Stream is one stream the node carries from boot: opened on the engine with
// its table size and rate, and broadcast by this node when Source is set.
type Stream struct {
	// SourceConfig gives the stream's id, geometry and length; StartAt and
	// OnDone matter only to the broadcaster. Build fills Publisher.
	stream.SourceConfig
	// Source makes this node the stream's broadcaster.
	Source bool
}

// Spec describes one node's stack. Everything substrate-specific arrives as a
// value or a func: the callers own sockets, simulators and measurement.
type Spec struct {
	// ID is the node's identity.
	ID wire.NodeID
	// View or Cyclon is the node's already-built membership: exactly one is
	// set. A Cyclon is registered as the stack's first handler.
	View   *membership.View
	Cyclon *membership.Cyclon
	// Weights, when non-nil, weighs the engine's flat target draws by
	// node id (membership.Selector.Weights, the SourceBias ablation);
	// aggregation and size estimation keep drawing uniformly.
	Weights []uint32

	// Engine carries the dissemination knobs and the application's
	// OnDeliver. Build fills the wiring fields: Sampler, FanoutFn, Adaptive,
	// Capabilities and Observers.
	Engine core.Config

	// AdvertisedKbps is the upload capability the node claims: its own entry
	// in the capability aggregation and the adaptation controller's ceiling.
	AdvertisedKbps uint32
	// Aggregation, when non-nil, makes this a HEAP node: a capability
	// estimator scales the engine's fanout by b_i/bbar. Build fills
	// SelfCapKbps, Sampler and Exclude.
	Aggregation *aggregation.Config
	// SizeEstimator, when non-nil, runs push-pull system-size averaging and
	// derives fbar as ln(n̂)+FanoutMargin, falling back to Engine.Fanout until
	// the estimate is usable. Build fills Sampler.
	SizeEstimator *aggregation.AveragerConfig
	FanoutMargin  float64
	// Adapt, when non-nil, closes the congestion feedback loop with a
	// controller fed by AdaptSignal.
	Adapt *adapt.Config
	// AdaptSignal supplies the transmit-pressure sample for Adapt: uplink
	// backlog, monotonic sent bytes, queued bytes, tail drops. The substrate
	// provides it (simnet queue probes, ratelimit.Sender accessors); the
	// sample time is filled in for it. Required with Adapt, refused without.
	AdaptSignal func() adapt.Sample
	// OnAdapt, if non-nil, observes every effective-capability change the
	// controller makes (after it is advertised) — deployment surfaces keep
	// their own advertised-value mirrors current through it.
	OnAdapt func(effKbps uint32)
	// Detect, when non-nil, runs a misbehavior detector whose verdicts reach
	// every place a peer is chosen or trusted: flat draws, split draws, the
	// capability average, and the engine's request targets.
	Detect *misbehave.Config
	// Trace, when non-nil, records sampled dissemination-path events.
	Trace *telemetry.TraceConfig

	// Intercept, when non-nil, wraps the engine before it is registered for
	// Propose/Request/Serve (adversarial message dropping).
	Intercept func(env.Handler) env.Handler
	// Streams are opened in order, which is the engine's gossip-round order.
	Streams []Stream
}

// Node is one assembled stack. Optional parts are nil when the Spec left
// them out.
type Node struct {
	Engine     *core.Engine
	Estimator  *aggregation.Estimator
	Averager   *aggregation.Averager
	Controller *adapt.Controller
	Detector   *misbehave.Detector
	Tracer     *telemetry.Tracer
	View       *membership.View
	// Sources are the broadcasters Build created, in Spec.Streams order.
	Sources []*stream.Source
	// Handler is what the runtime drives: the mux over every part above.
	Handler env.Handler
	// Receivers are a measured node's per-stream delivery records. They
	// belong to whoever owns Engine.OnDeliver; Build leaves them nil.
	Receivers []*stream.Receiver
}

// Build wires one node's stack in the package's pinned order.
func Build(spec Spec) (*Node, error) {
	mux := env.NewMux()
	n := &Node{View: spec.View, Handler: mux}
	ec := spec.Engine
	sampler, err := n.wireMembership(&spec, &ec, mux)
	if err != nil {
		return nil, err
	}
	if err := n.wireCapability(&spec, &ec, mux, sampler); err != nil {
		return nil, err
	}
	if spec.Trace != nil {
		n.Tracer = telemetry.NewTracer(spec.ID, *spec.Trace)
	}
	ec.Observers = n.observers(&spec)

	if n.Engine, err = core.New(ec); err != nil {
		return nil, err
	}
	for _, st := range spec.Streams {
		if !st.Source {
			if err := n.Engine.OpenStream(st.Stream, streamConfig(st.SourceConfig)); err != nil {
				return nil, err
			}
			continue
		}
		src, err := n.NewSource(st.SourceConfig)
		if err != nil {
			return nil, err
		}
		n.Sources = append(n.Sources, src)
	}
	var handler env.Handler = n.Engine
	if spec.Intercept != nil {
		handler = spec.Intercept(handler)
	}
	mux.Register(handler, wire.KindPropose, wire.KindRequest, wire.KindServe)
	for _, src := range n.Sources {
		mux.Register(src) // lifecycle only
	}
	return n, nil
}

// wireMembership settles who the node gossips with: one membership.Selector
// over its View or Cyclon, excluding the detector's quarantined peers when
// there is one. It returns the selector the aggregation layers share and
// fills the engine's Sampler, which adds Spec.Weights.
func (n *Node) wireMembership(spec *Spec, ec *core.Config, mux *env.Mux) (*membership.Selector, error) {
	if (spec.View == nil) == (spec.Cyclon == nil) {
		return nil, fmt.Errorf("stack: node %d needs exactly one of View and Cyclon", spec.ID)
	}
	sel := &membership.Selector{From: spec.View}
	if spec.Cyclon != nil {
		if ec.FanoutIntra+ec.FanoutInter > 0 {
			return nil, fmt.Errorf("stack: node %d: hierarchical fanout requires a full-membership view", spec.ID)
		}
		sel.From = spec.Cyclon
		mux.Register(spec.Cyclon, wire.KindShuffleReq, wire.KindShuffleReply)
	}
	if spec.Detect != nil {
		det, err := misbehave.New(*spec.Detect)
		if err != nil {
			return nil, err
		}
		n.Detector = det
		sel.Exclude = det.Quarantined
	}
	ec.Sampler = sel
	if spec.Weights != nil {
		ec.Sampler = &membership.Selector{From: sel.From, Exclude: sel.Exclude, Weights: spec.Weights}
	}
	return sel, nil
}

// wireCapability builds what sets the node's fanout: the size averager
// (fbar), the capability estimator (b_i/bbar) and the adaptation controller
// (b_i under congestion), in that order.
func (n *Node) wireCapability(spec *Spec, ec *core.Config, mux *env.Mux, sampler *membership.Selector) error {
	if spec.SizeEstimator != nil {
		ac := *spec.SizeEstimator
		ac.Sampler = sampler
		avg := aggregation.NewAverager(ac)
		n.Averager = avg
		mux.Register(avg, wire.KindAvgPush, wire.KindAvgReply)
		fallback, margin := ec.Fanout, spec.FanoutMargin
		ec.FanoutFn = func() float64 {
			nHat := avg.SizeEstimate()
			if nHat < 2 {
				return fallback
			}
			return math.Log(nHat) + margin
		}
	}
	if spec.Aggregation != nil {
		ac := *spec.Aggregation
		ac.SelfCapKbps = spec.AdvertisedKbps
		ac.Sampler = sampler
		if n.Detector != nil {
			// The fanout penalty: a quarantined peer's capability claim
			// leaves bbar, so a liar's inflated claim stops taxing honest
			// fanouts once convicted.
			ac.Exclude = n.Detector.Quarantined
		}
		n.Estimator = aggregation.NewEstimator(ac)
		ec.Adaptive = true
		ec.Capabilities = n.Estimator
		mux.Register(n.Estimator, wire.KindAggregate)
	}
	if (spec.Adapt == nil) != (spec.AdaptSignal == nil) {
		return fmt.Errorf("stack: node %d: Adapt and AdaptSignal must be set together", spec.ID)
	}
	if spec.Adapt != nil {
		ctrl, err := adapt.NewController(*spec.Adapt, spec.AdvertisedKbps)
		if err != nil {
			return err
		}
		n.Controller = ctrl
	}
	return nil
}

// observers lists the parts that watch the engine, in the order it calls
// them: adaptation first, so a re-estimate lands before the round's fanout
// draws and before the detector evaluates; then the detector; then the
// tracer.
func (n *Node) observers(spec *Spec) []core.Observer {
	var obs []core.Observer
	if n.Controller != nil {
		obs = append(obs, &adaptObserver{node: n, signal: spec.AdaptSignal, onAdapt: spec.OnAdapt})
	}
	if n.Detector != nil {
		obs = append(obs, n.Detector)
	}
	if n.Tracer != nil {
		obs = append(obs, n.Tracer)
	}
	return obs
}

// adaptObserver runs the congestion-feedback loop on the engine's round
// schedule: every controller interval (quantized to gossip rounds) it feeds
// one pressure sample to the controller; on a re-estimate it shrinks or
// restores the engine's upload budget and re-advertises through the
// capability estimator, which propagates the new value by the normal
// freshness gossip — fanout sheds load before the queue sheds packets. The
// controller is deterministic and rng-free, so adapt-enabled runs keep every
// reproducibility guarantee.
type adaptObserver struct {
	core.NopObserver
	node    *Node
	signal  func() adapt.Sample
	onAdapt func(effKbps uint32)
	lastAt  time.Duration
}

func (a *adaptObserver) Tick(now time.Duration) {
	ctrl := a.node.Controller
	if now-a.lastAt < ctrl.Interval() {
		return
	}
	a.lastAt = now
	s := a.signal()
	s.At = now
	eff, changed := ctrl.Observe(s)
	if !changed {
		return
	}
	a.node.Engine.SetUploadBudget(eff)
	if a.node.Estimator != nil {
		a.node.Estimator.SetSelfCapKbps(eff)
	}
	if a.onAdapt != nil {
		a.onAdapt(eff)
	}
}

// streamConfig sizes a stream's engine tables from its geometry and weighs it
// by its rate in the fanout-budget allocator.
func streamConfig(sc stream.SourceConfig) core.StreamConfig {
	return core.StreamConfig{
		ExpectedPackets: sc.Geometry.TotalPackets(sc.Windows),
		RateKbps:        float64(sc.Geometry.EffectiveRateBps()) / 1000,
	}
}

// NewSource opens a stream on the engine and returns a source broadcasting it
// through the engine. The source joins no runtime: Build registers the ones
// it creates, and a caller adding a stream to a running node attaches the
// returned source itself.
func (n *Node) NewSource(sc stream.SourceConfig) (*stream.Source, error) {
	sc.Publisher = n.Engine
	src, err := stream.NewSource(sc)
	if err != nil {
		return nil, err
	}
	if err := n.Engine.OpenStream(sc.Stream, streamConfig(sc)); err != nil {
		return nil, err
	}
	return src, nil
}

// Collect emits the stack's samples: engine counters, the capability
// estimate, the adaptation controller and the misbehavior detector. Like the
// parts it reads, it must run on the node's execution context (or after
// shutdown).
func (n *Node) Collect(emit func(name string, value float64)) {
	n.Engine.Collect(emit)
	if n.Estimator != nil {
		emit("heap_bbar_kbps", n.Estimator.EstimateKbps())
	}
	if n.Controller != nil {
		n.Controller.Collect(emit)
	}
	if n.Detector != nil {
		n.Detector.Collect(emit)
	}
}
