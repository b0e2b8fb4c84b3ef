package heapgossip

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/netem"
	"repro/internal/stack"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// DeliverFunc receives every stream packet exactly once as it is delivered.
// stream identifies which of the node's concurrent streams the packet
// belongs to (0 for single-stream deployments); lag is the time between the
// packet's publication (per its stamp) and its local delivery, assuming
// loosely synchronized clocks across nodes.
type DeliverFunc func(stream StreamID, id PacketID, payload []byte, lag time.Duration)

// NodeConfig assembles one real-UDP HEAP node.
type NodeConfig struct {
	// ID is this node's identity; it must be unique within the deployment.
	ID NodeID
	// Listen is the UDP listen address (default "127.0.0.1:0").
	Listen string
	// UploadKbps is the node's advertised upload capability; it throttles
	// the socket (token bucket + queue) and feeds HEAP's aggregation.
	// Required.
	UploadKbps uint32
	// SocketBufferBytes sizes the kernel socket buffers (SO_RCVBUF and
	// SO_SNDBUF) at bind. 0 selects udpnet's 1 MiB default — kernel-default
	// receive buffers drop inbound bursts well below a node's capability,
	// which reads as network loss — and a negative value leaves the kernel
	// defaults untouched.
	SocketBufferBytes int
	// Adaptive enables HEAP; false runs standard fixed-fanout gossip.
	Adaptive bool
	// Fanout is fbar, the target average fanout (ln(n)+c). Default 7.
	Fanout float64
	// GossipPeriod is the propose batching period. Default 200 ms (the
	// engine's).
	GossipPeriod time.Duration
	// Peers maps every node id (including self) to its UDP address,
	// "host:port". More peers can join later via Node.AddPeer.
	Peers map[NodeID]string
	// OnDeliver, if non-nil, receives every delivered packet.
	OnDeliver DeliverFunc
	// Source, if non-nil, makes this node the stream broadcaster.
	Source *SourceConfig
	// Seed drives the node's protocol randomness (default: derived from ID).
	Seed int64
	// Epoch is the shared time base for lag stamps and netem schedules
	// (default: this node's start time). For schedule-driven netem
	// profiles — partitions, spikes, capability traces — give every node
	// of a deployment the same Epoch (heapnode's -epoch flag), or start
	// them near-simultaneously: schedules are relative to the epoch, so
	// staggered per-node epochs would open the same window at different
	// wall-clock times on each node.
	Epoch time.Time
	// Netem, if non-nil, emulates adverse network conditions on this node:
	// every datagram it sends passes through the profile's models (bursty
	// loss, partitions, spikes, asymmetric degradation) at the same
	// transmit-time point the simulator consults them, and capability
	// traces that cover this node's id rewrite its advertised capability
	// on schedule. Give every node of a deployment the same profile, and
	// either the same Seed or none (the engine materializes its random
	// node sets from the configured seed before any per-ID derivation, so
	// the zero default is already coherent across nodes).
	Netem *Netem
	// Adapt, if non-nil, closes the congestion feedback loop on this node:
	// a controller observes the paced sender's real pressure — queue
	// backlog, tail drops, achieved throughput — and re-advertises an
	// effective capability (with hysteresis) when the node cannot sustain
	// its configured UploadKbps. The zero AdaptConfig selects the stock
	// policy. Requires Adaptive (there is no advertisement to adapt under
	// standard gossip). While adaptation runs, SetAdvertisedKbps calls
	// race it and should be avoided; AdvertisedKbps tracks the adapted
	// value.
	Adapt *AdaptConfig
	// Misbehave, if non-nil, runs the misbehavior detector on this node:
	// per-peer contribution evidence is collected on the engine's message
	// paths, and — when Armed — peers convicted of freeriding or dropping
	// are quarantined: excluded from gossip target draws, their proposals
	// ignored, and (under Adaptive) their capability claims expelled from
	// the average. The zero MisbehaveConfig observes without verdicts.
	// Leave Alive nil on real deployments: there is no liveness oracle, and
	// quarantining a dead peer is harmless.
	Misbehave *MisbehaveConfig
	// Telemetry, if non-nil, is the metric registry this node registers its
	// subsystem collectors into; nil gives the node a fresh private
	// registry (Node.Telemetry). Supplying one lets an embedding program
	// add its own instruments to the same scrape surface before the node
	// starts (heapnode's delivery counters and lag histogram).
	Telemetry *TelemetryRegistry
}

// SourceConfig describes one stream a node broadcasts.
type SourceConfig struct {
	// Stream is the dissemination stream id this source broadcasts on.
	// Single-stream deployments use the default 0; multi-source
	// deployments give every broadcaster its own id (Node.OpenStream).
	Stream StreamID
	// Geometry of the stream. Default PaperGeometry().
	Geometry Geometry
	// Windows is the stream length in FEC windows. Required.
	Windows int
	// StartDelay postpones the first packet (lets aggregation warm up).
	// Default 2 s.
	StartDelay time.Duration
}

// Node is a running HEAP node on a real UDP socket.
type Node struct {
	id        NodeID
	udp       *udpnet.Node
	stack     *stack.Node
	telemetry *telemetry.Registry
	capKbps   atomic.Uint32
}

// read runs fn serialized with protocol callbacks — or directly once the node
// is closed: nothing mutates the subsystems anymore, so an unserialized read
// is safe and every statistics accessor stays truthful after Close.
func (n *Node) read(fn func()) {
	if !n.udp.Execute(fn) {
		fn()
	}
}

// StreamHandle controls one locally sourced stream on a running Node,
// opened with Node.OpenStream (or implicitly for NodeConfig.Source).
type StreamHandle struct {
	node *Node
	id   StreamID
	src  *stream.Source
}

// ID returns the handle's stream id.
func (h *StreamHandle) ID() StreamID { return h.id }

// Done reports whether the stream's last packet has been published.
func (h *StreamHandle) Done() bool {
	done := false
	h.node.read(func() { done = h.src.Done })
	return done
}

// Published returns how many packets (source + parity) the stream has
// handed to the dissemination engine so far.
func (h *StreamHandle) Published() int {
	n := 0
	h.node.read(func() { n = h.src.Published })
	return n
}

// StartNode binds a socket, wires the protocol stack (dissemination engine,
// capability aggregation when Adaptive, optional stream source) and starts
// it. Close the returned node to shut down.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.UploadKbps == 0 {
		return nil, fmt.Errorf("heapgossip: UploadKbps is required")
	}
	if cfg.Adapt != nil && !cfg.Adaptive {
		return nil, fmt.Errorf("heapgossip: Adapt requires Adaptive (standard gossip has no advertisement to adapt)")
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 7
	}
	// Netem node-set materialization (partition groups, asym/captrace node
	// selections) must come out identical on every node of the deployment,
	// so the engine builds from the seed as configured — shared explicitly,
	// or the common zero default — *before* the per-ID protocol-seed
	// derivation below.
	netemSeed := cfg.Seed
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID) + 1
	}
	peerIDs := make([]wire.NodeID, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		if id < 0 || id >= membership.MaxPeerID {
			return nil, fmt.Errorf("heapgossip: peer id %d outside [0, %d)", id, membership.MaxPeerID)
		}
		peerIDs = append(peerIDs, id)
	}

	n := &Node{id: cfg.ID, telemetry: cfg.Telemetry}
	if n.telemetry == nil {
		n.telemetry = telemetry.NewRegistry()
	}
	n.capKbps.Store(cfg.UploadKbps)
	var err error
	if n.stack, err = stack.Build(n.stackSpec(&cfg, peerIDs)); err != nil {
		return nil, err
	}

	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Now()
	}
	udpCfg := udpnet.Config{
		Listen:            cfg.Listen,
		UploadBps:         int64(cfg.UploadKbps) * 1000,
		SocketBufferBytes: cfg.SocketBufferBytes,
		Seed:              cfg.Seed,
		Epoch:             cfg.Epoch,
	}
	var capSteps []capStep
	if cfg.Netem != nil {
		// Materialize over the actual deployment ids (peers files need not
		// be dense), so partition groups and traced node sets land on nodes
		// that exist — identically on every host sharing the peers file.
		engine, err := cfg.Netem.BuildForNodes(peerIDs, netemSeed, 0)
		if err != nil {
			return nil, err
		}
		udpCfg.Netem = engine
		capSteps = capStepsFor(engine, cfg.ID)
	}
	peers := make(map[wire.NodeID]*net.UDPAddr, len(cfg.Peers))
	for id, addrStr := range cfg.Peers {
		if peers[id], err = net.ResolveUDPAddr("udp", addrStr); err != nil {
			return nil, fmt.Errorf("heapgossip: peer %d address %q: %w", id, addrStr, err)
		}
	}
	if n.udp, err = udpnet.NewNode(cfg.ID, n.stack.Handler, udpCfg); err != nil {
		return nil, err
	}
	// Two collectors back the scrape surface: the transport one reads only
	// lock-free sender counters and the node's own mutex (safe from any
	// goroutine, truthful after Close), while the protocol one serializes
	// with the execution context like the statistics accessors.
	n.telemetry.RegisterCollector(func(emit telemetry.EmitFunc) { n.udp.Collect(emit) })
	n.telemetry.RegisterCollector(n.collectProtocol)

	n.udp.SetPeers(peers)
	if err := n.udp.Start(); err != nil {
		n.udp.Close()
		return nil, err
	}
	if len(capSteps) > 0 {
		n.udp.Attach(&capTrace{node: n, uploadKbps: cfg.UploadKbps, steps: capSteps})
	}
	return n, nil
}

// stackSpec describes this node to the stack builder: the NodeConfig's
// protocol choices, bound to the socket's paced sender for the adaptation
// signal (n.udp exists by the time the engine first samples it).
func (n *Node) stackSpec(cfg *NodeConfig, peerIDs []wire.NodeID) stack.Spec {
	spec := stack.Spec{
		ID:   cfg.ID,
		View: membership.NewView(cfg.ID, peerIDs),
		Engine: core.Config{
			Fanout:       cfg.Fanout,
			GossipPeriod: cfg.GossipPeriod,
			// The fanout-budget allocator divides this across concurrent
			// streams; with a single stream it is inert.
			UploadKbps: cfg.UploadKbps,
		},
		AdvertisedKbps: cfg.UploadKbps,
		Adapt:          cfg.Adapt,
		Detect:         cfg.Misbehave,
	}
	if cfg.OnDeliver != nil {
		deliver := cfg.OnDeliver
		spec.Engine.OnDeliver = func(ev wire.Event, at time.Duration) {
			lag := at - time.Duration(ev.Stamp)
			if lag < 0 {
				lag = 0
			}
			deliver(ev.Stream, ev.ID, ev.Payload, lag)
		}
	}
	if cfg.Adaptive {
		spec.Aggregation = &aggregation.Config{}
	}
	if cfg.Adapt != nil {
		// The signal reads the paced sender's lock-free counters; the engine
		// samples it from the node's execution context on its gossip rounds.
		// SentBytes must be the enqueue-counted accumulator (AcceptedBytes):
		// the controller derives drained bytes as ΔSentBytes − ΔQueuedBytes,
		// which only holds when both counters sit on the enqueue side — the
		// same convention as the simulator's NodeStats.SentBytes.
		spec.AdaptSignal = func() adapt.Sample {
			return adapt.Sample{
				Backlog:     n.udp.SendBacklog(),
				SentBytes:   n.udp.AcceptedBytes(),
				QueuedBytes: n.udp.QueuedBytes(),
				Dropped:     n.udp.SendDropped(),
			}
		}
		// Keep the public AdvertisedKbps mirror current (the stack
		// advertises through the estimator internally).
		spec.OnAdapt = func(effKbps uint32) { n.capKbps.Store(effKbps) }
	}
	if cfg.Source != nil {
		spec.Streams = []stack.Stream{{SourceConfig: n.sourceConfig(*cfg.Source), Source: true}}
	}
	return spec
}

// sourceConfig resolves a public SourceConfig's defaults into the stream
// layer's. The stream retires from the fanout-budget competition when its
// production ends, so a long-lived node's past broadcasts stop throttling
// future ones.
func (n *Node) sourceConfig(sc SourceConfig) stream.SourceConfig {
	if sc.Geometry == (Geometry{}) {
		sc.Geometry = PaperGeometry()
	}
	if sc.StartDelay == 0 {
		sc.StartDelay = 2 * time.Second
	}
	return stream.SourceConfig{
		Stream:   sc.Stream,
		Geometry: sc.Geometry,
		Windows:  sc.Windows,
		StartAt:  sc.StartDelay,
		OnDone:   func() { n.stack.Engine.RetireStream(sc.Stream) },
	}
}

// capStep is one netem capability-trace step covering this node.
type capStep struct {
	netem.CapStep
	silent bool
}

// capStepsFor collects the trace steps covering id. Capability traces apply
// node-locally, on the node's event loop once it runs (capTrace).
func capStepsFor(engine *netem.Engine, id NodeID) []capStep {
	var steps []capStep
	for _, tr := range engine.CapTraces() {
		for _, traced := range tr.Nodes {
			if traced != id {
				continue
			}
			for _, st := range tr.Steps {
				steps = append(steps, capStep{CapStep: st, silent: tr.Silent})
			}
		}
	}
	return steps
}

// capTrace is a lifecycle-only handler that plays this node's capability
// trace on the event loop, its steps timed from the (possibly shared) epoch.
// Of the steps already past at Start — a node starting or restarting late
// into the schedule — only the latest applies, synchronously, before
// StartNode returns. Each step rewrites both the advertised capability and
// the real pacer rate, the same pair the simulator's cap-trace application
// touches, so a traced deployment actually loses (and regains) throughput.
// Silent steps rewrite only the pacer: the node keeps claiming full
// capability and only the adaptation loop (Adapt) can discover the gap —
// exactly the simulator's silent-trace semantics. A step still pending at
// Close never fires.
type capTrace struct {
	node       *Node
	uploadKbps uint32
	steps      []capStep
}

func (c *capTrace) Start(rt env.Runtime) {
	elapsed := rt.Now()
	latestPast := -1
	for i, st := range c.steps {
		if st.At <= elapsed && (latestPast < 0 || st.At >= c.steps[latestPast].At) {
			latestPast = i
		}
	}
	if latestPast >= 0 {
		c.apply(c.steps[latestPast])
	}
	for _, st := range c.steps {
		if st.At > elapsed {
			rt.AfterFunc(st.At-elapsed, func() { c.apply(st) })
		}
	}
}

// apply runs in the node's execution context, so it writes the estimator
// directly: SetAdvertisedKbps would re-enter it through Execute.
func (c *capTrace) apply(st capStep) {
	n := c.node
	adv := uint32(float64(c.uploadKbps) * st.Factor)
	if adv == 0 {
		adv = 1
	}
	if !st.silent {
		n.capKbps.Store(adv)
		if est := n.stack.Estimator; est != nil {
			est.SetSelfCapKbps(adv)
		}
	}
	n.udp.SetUploadBps(int64(adv) * 1000)
}

func (c *capTrace) Receive(wire.NodeID, wire.Message) {}
func (c *capTrace) Stop()                             {}

// Addr returns the node's bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.udp.Addr() }

// AddPeer registers a peer that joined after startup. Safe to call while
// the node runs: the view mutation is serialized with protocol callbacks.
// An id outside [0, 1<<20) — the ceiling StartNode enforces on Peers — only
// gains an address: the view ignores it, so the node never gossips to it.
func (n *Node) AddPeer(id NodeID, addr *net.UDPAddr) {
	n.udp.AddPeer(id, addr)
	n.udp.Execute(func() { n.stack.View.Add(id) })
}

// RemovePeer drops a peer (e.g., on failure notification).
func (n *Node) RemovePeer(id NodeID) {
	n.udp.Execute(func() { n.stack.View.Remove(id) })
}

// Close shuts the node down.
func (n *Node) Close() {
	n.udp.Close()
}

// SetAdvertisedKbps rewrites the capability this node advertises to the
// aggregation protocol (capability re-measurement). The upload
// throttle is unchanged — advertising is a claim, not a cap. No-op for
// standard-gossip nodes.
func (n *Node) SetAdvertisedKbps(kbps uint32) {
	n.capKbps.Store(kbps)
	n.udp.Execute(func() {
		if est := n.stack.Estimator; est != nil {
			est.SetSelfCapKbps(kbps)
		}
	})
}

// AdvertisedKbps returns the capability the node currently advertises.
// Truthful after Close, like the statistics accessors. With Adapt enabled
// it tracks the controller's effective estimate.
func (n *Node) AdvertisedKbps() uint32 { return n.capKbps.Load() }

// AdaptTrace returns the adaptation controller's re-advertisement history
// (nil without an Adapt config; bounded to the controller's most recent
// entries), serialized with protocol activity and — like the other
// statistics accessors — truthful after Close. Times are durations since
// the node's Epoch.
func (n *Node) AdaptTrace() []AdaptReadvertisement {
	var out []AdaptReadvertisement
	n.read(func() {
		if ctrl := n.stack.Controller; ctrl != nil {
			out = append(out, ctrl.Trace()...)
		}
	})
	return out
}

// AdaptReadvertisements returns how many times the adaptation controller
// changed the advertised capability (0 without an Adapt config). Truthful
// after Close.
func (n *Node) AdaptReadvertisements() int {
	count := 0
	n.read(func() {
		if ctrl := n.stack.Controller; ctrl != nil {
			count = ctrl.Readvertisements()
		}
	})
	return count
}

// SendQueueDropped returns how many outgoing datagrams were tail-dropped by
// the paced sender's bounded queue — the first symptom of this node trying
// to send past its upload capability.
func (n *Node) SendQueueDropped() int64 { return n.udp.SendDropped() }

// SendQueueBacklog returns how long the paced sender's queued bytes take to
// drain at the current rate — the live congestion signal (0 when idle or
// unthrottled). Safe to poll from any goroutine, like SendQueueDropped.
func (n *Node) SendQueueBacklog() time.Duration { return n.udp.SendBacklog() }

// QuarantinedPeers returns the peers this node's misbehavior detector
// currently holds quarantined, ascending (nil without a Misbehave config, or
// with an unarmed one). Truthful after Close, like the other statistics
// accessors.
func (n *Node) QuarantinedPeers() []NodeID {
	var out []NodeID
	n.read(func() {
		if det := n.stack.Detector; det != nil {
			out = det.QuarantinedPeers()
		}
	})
	return out
}

// MisbehaveEvidence returns the detector's contribution evidence for one
// peer (zero record and false without a Misbehave config or for a peer never
// observed). Truthful after Close.
func (n *Node) MisbehaveEvidence(peer NodeID) (MisbehaveEvidence, bool) {
	var (
		ev MisbehaveEvidence
		ok bool
	)
	n.read(func() {
		if det := n.stack.Detector; det != nil {
			ev, ok = det.EvidenceOf(peer)
		}
	})
	return ev, ok
}

// NetemCounters returns how many outbound datagrams this node's netem model
// dropped and delayed (zeros without a Netem config). Truthful after Close.
func (n *Node) NetemCounters() (dropped, delayed int) {
	return n.udp.NetemCounters()
}

// Stats returns the node's dissemination counters, serialized with protocol
// activity. Truthful after Close.
func (n *Node) Stats() EngineStats {
	var st EngineStats
	n.read(func() { st = n.stack.Engine.Stats() })
	return st
}

// EstimateKbps returns the node's current estimate of the system-wide mean
// upload capability (HEAP only; 0 for standard gossip nodes). Truthful after
// Close.
func (n *Node) EstimateKbps() float64 {
	var kbps float64
	n.read(func() {
		if est := n.stack.Estimator; est != nil {
			kbps = est.EstimateKbps()
		}
	})
	return kbps
}

// collectProtocol emits the advertised capability plus the stack's
// serialized samples.
func (n *Node) collectProtocol(emit telemetry.EmitFunc) {
	emit("node_advertised_kbps", float64(n.capKbps.Load()))
	n.read(func() { n.stack.Collect(emit) })
}

// Telemetry returns the node's metric registry — every subsystem's counters
// as one conservation-checkable snapshot (Registry.Snapshot), also the
// backing store for the introspection listener. Safe to scrape from any
// goroutine, truthful after Close.
func (n *Node) Telemetry() *TelemetryRegistry { return n.telemetry }

// StartTelemetry binds an introspection HTTP listener on addr serving
// Prometheus-text /metrics, /debug/pprof/*, /healthz (503 once the node is
// closed), and a /statusz JSON snapshot. Close the returned server when
// done; it is not stopped by Node.Close (post-shutdown scrapes stay
// truthful).
func (n *Node) StartTelemetry(addr string) (*TelemetryServer, error) {
	return telemetry.StartServer(telemetry.ServerConfig{
		Addr:     addr,
		Registry: n.telemetry,
		Healthy:  func() bool { return n.udp.Execute(func() {}) },
		Status: func() map[string]any {
			return map[string]any{
				"node":            int64(n.id),
				"addr":            n.Addr().String(),
				"advertised_kbps": n.capKbps.Load(),
			}
		},
	})
}

// SourceDone reports whether this node's stream (if any) finished. Truthful
// after Close.
func (n *Node) SourceDone() bool {
	done := false
	// Sources holds the NodeConfig.Source stream only: OpenStream's sources
	// belong to their handles.
	n.read(func() { done = len(n.stack.Sources) > 0 && n.stack.Sources[0].Done })
	return done
}

// OpenStream starts broadcasting an additional stream from this running
// node: the stream is registered with the dissemination engine (its rate
// joins the fanout-budget competition for the node's uplink) and a source
// begins publishing after cfg.StartDelay. The stream id must not collide
// with a stream the engine already carries (including a NodeConfig.Source
// stream). Receiving nodes need no configuration — they track new streams
// on first contact.
func (n *Node) OpenStream(id StreamID, cfg SourceConfig) (*StreamHandle, error) {
	cfg.Stream = id
	var (
		src    *stream.Source
		srcErr error
	)
	ok := n.udp.Execute(func() { src, srcErr = n.stack.NewSource(n.sourceConfig(cfg)) })
	if !ok {
		return nil, fmt.Errorf("heapgossip: node is closed")
	}
	if srcErr != nil {
		return nil, srcErr
	}
	if !n.udp.Attach(src) {
		return nil, fmt.Errorf("heapgossip: node is closed")
	}
	return &StreamHandle{node: n, id: id, src: src}, nil
}
