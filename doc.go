// Package heapgossip is a from-scratch Go implementation of HEAP, the
// HEterogeneity-Aware gossip Protocol of Frey, Guerraoui, Kermarrec, Monod,
// Koldehofe, Mogensen and Quéma (Middleware 2009), together with everything
// needed to reproduce the paper's evaluation: the standard three-phase
// gossip baseline, the gossip-based capability aggregation protocol, a
// systematic Reed-Solomon FEC codec, a streaming workload, a deterministic
// discrete-event network simulator standing in for the paper's PlanetLab
// testbed, and a real-UDP runtime that runs the identical protocol code on
// sockets.
//
// # The protocol in one paragraph
//
// Standard gossip dissemination pushes packet identifiers to f random peers
// per period ([Propose]), peers pull what they miss ([Request]), and
// payloads flow back ([Serve]); each node proposes each id exactly once
// (infect-and-die). Reliability needs only the *average* fanout to reach
// ln(n)+c, so HEAP lets every node scale its own fanout by its relative
// upload capability, f_i = fbar·b_i/bbar, where bbar is continuously
// estimated by gossiping the freshest capability values. Rich nodes then
// propose more, get pulled more, and carry a share of the stream
// proportional to their bandwidth, while the fanout average — and thus
// epidemic reliability — is preserved.
//
// # Package layout
//
//   - Simulation API (this package): Scenario, RunScenario, the Table 1
//     capability distributions, and the metric helpers used to regenerate
//     every figure and table of the paper. See EXPERIMENTS.md.
//   - Sweep API (this package): Sweep, RunSweep executes whole grids of
//     scenarios (protocol x distribution x nodes x fanout x churn x seed
//     replicas) on a bounded worker pool with deterministic per-run seeds,
//     aggregating per-cell summary statistics and merged lag CDFs.
//   - Deployment API (this package): StartNode runs a HEAP node (optionally
//     a stream source) on a real UDP socket.
//   - internal/stack: the one per-node protocol wiring, in a pinned order,
//     shared by simulated and real-UDP nodes.
//   - internal/core: the dissemination engine (Algorithms 1 and 2).
//   - internal/aggregation: capability aggregation and push-pull averaging.
//   - internal/adapt: congestion-driven capability re-estimation.
//   - internal/misbehave: adversarial node classes and the deterministic
//     misbehavior detector.
//   - internal/fec, internal/gf256: systematic Reed-Solomon erasure coding.
//   - internal/simnet: the discrete-event network simulator.
//   - internal/udpnet, internal/ratelimit: the real-UDP runtime with
//     application-level upload throttling. On Linux it batches syscalls
//     (sendmmsg/recvmmsg) behind the pacer; elsewhere a portable
//     one-syscall-per-datagram path delivers identically.
//   - internal/membership: full-view sampling and a Cyclon-style PSS.
//   - internal/telemetry: the metrics registry, dissemination tracer, and
//     introspection HTTP server (see "Observability" below).
//   - internal/stream, internal/metrics, internal/scenario, internal/churn:
//     workload, measurement, experiment assembly, failure injection.
//
// # Quick start
//
// Run a scaled-down version of the paper's headline experiment:
//
//	res, err := heapgossip.RunScenario(heapgossip.Scenario{
//	    Nodes:    180,
//	    Protocol: heapgossip.HEAP,
//	    Dist:     heapgossip.MS691,
//	    Windows:  15,
//	    Seed:     1,
//	})
//
// and inspect res.Run with the metrics helpers (JitterFreeShare,
// MinLagForJitterFree, ...). The package's Example functions run these
// calls at toy size and check their output; cmd/heapsim (one run),
// cmd/heapsweep (grids) and cmd/heapbench (the paper's artifacts) are the
// command-line front ends.
//
// # Sweeps
//
// Grids of scenarios run in parallel through RunSweep — every run's seed is
// derived from its grid position, so results are identical for any worker
// count:
//
//	sweep, err := heapgossip.RunSweep(heapgossip.Sweep{
//	    Base:      heapgossip.Scenario{Nodes: 180, Windows: 15},
//	    Protocols: []heapgossip.Protocol{heapgossip.StandardGossip, heapgossip.HEAP},
//	    Dists:     []heapgossip.Distribution{heapgossip.Ref691, heapgossip.MS691},
//	    Replicas:  3,
//	    BaseSeed:  1,
//	})
//	fmt.Print(sweep.Table().Render())
//
// Each of the four cells pools its three replicas into summary statistics
// (mean jitter-free share, merged lag CDF percentiles); cmd/heapsweep is
// the command-line front end, and EXPERIMENTS.md maps each paper artifact
// to the sweep that regenerates it.
//
// # Large-scale runs
//
// The paper stops at 270 nodes; the LargeScale family goes to 1k-20k with
// the dynamics that only exist at that scale — flash-crowd join waves
// (Scenario.JoinWaves), correlated churn bursts (Scenario.ChurnBursts), and
// a bimodal capability distribution — on Cyclon peer sampling. Run the grid
// with `heapsweep -largescale`; the 100k and 1M cells are simulator
// benchmarks (internal/scenario). See the "Large-N grid" section of
// EXPERIMENTS.md.
//
// # Multi-source streams
//
// Several broadcasters can stream simultaneously through one deployment.
// Each engine keeps per-stream dissemination state (pending/buffer tables,
// retransmission) over a single shared membership view and capability
// aggregation layer, and a fanout-budget allocator divides every node's
// upload capability across the active streams, weighted by stream rate, so
// aggregate sends never exceed the node's UploadKbps — several simultaneous
// broadcasters competing for one uplink is where HEAP's bandwidth
// accounting gets genuinely hard. In simulation, `heapsweep -streams K`
// runs K sources with staggered starts (Scenario.Streams); results then
// carry one measurement record per stream (ScenarioResult.StreamRuns) and
// per-stream lag summaries (StreamSummaries). Over real sockets, configure
// NodeConfig.Source with a Stream id, or open additional streams on a
// running node with Node.OpenStream; receivers track new streams on first
// contact with no configuration. Stream 0 encodes exactly as the legacy
// single-stream wire format, so multi-stream nodes interoperate with old
// ones on the default stream. See the "Multi-source streams" section of
// EXPERIMENTS.md and `heapbench -artifact multisource`.
//
// # Adaptive capability re-estimation
//
// The paper assumes capabilities are "user-provided or measured at join
// time" and trusts them for the rest of the run — the degraded-node
// sensitivity study shows how a few percent of nodes silently delivering
// less than they advertise absorb the whole capability margin. internal/adapt
// closes that loop: a per-node controller observes real transmit pressure
// (uplink queue backlog, tail drops, achieved throughput over a sliding
// window) and re-advertises an effective capability with hysteresis —
// multiplicative decrease under sustained backlog (cutting straight to the
// measured throughput when that is lower), slow additive probing back up
// once the queue drains, always clamped to [floor, configured]. The adapted
// value feeds both HEAP's aggregation (fanout tracks the measured
// capability) and the multi-stream fanout-budget allocator. Enable it with
// Scenario.Adapt (simulation; results in ScenarioResult.AdaptStats with
// per-node re-advertisement traces), NodeConfig.Adapt (real sockets,
// `heapnode -adapt`), or `heapsweep -adapt`. The zero AdaptConfig selects
// the stock policy. The controller runs on the engine's existing gossip
// ticker, draws no randomness, and with Adapt unset nothing of it runs at
// all, so the determinism guarantees below hold byte-for-byte either way. The netem profile "captrace-silent" is its natural sparring
// partner: traced nodes lose real capacity while their advertisement goes
// stale, and only the controller can discover the gap (`heapbench -artifact
// adapt` renders the on/off comparison).
//
// # Adversarial nodes and misbehavior detection
//
// HEAP also trusts peers to behave. internal/misbehave models the peers
// that don't — freeriders consume the stream but drop the Requests sent to
// them, capability liars over-advertise so HEAP routes them serve load
// they never carry, droppers swallow proposals — and the deterministic
// detector that answers them: per-peer contribution evidence collected on
// the engine's message paths feeds two conservative verdict rules (serve
// deficit; total unresponsiveness), and a convicted peer is dropped from
// gossip target draws, has its proposals ignored, and loses its vote in
// the capability average. Verdicts heal when contribution recovers.
// Configure adversaries and detection in simulation with Scenario.Adversary
// (results in ScenarioResult.AdversaryStats with per-class detection rates,
// the false-positive record, and an observer-coalition source-anonymity
// probe), sweep the honest/observe-only/armed A/B with `heapsweep
// -adversary`, render the measured tables with `heapbench -artifact
// adversary`, and run the detector on a real
// socket with NodeConfig.Misbehave (`heapnode -detect`; inspect it via
// Node.QuarantinedPeers and Node.MisbehaveEvidence). The detector draws no
// randomness and evaluates on the engine's existing ticker, so adversarial
// runs keep every determinism guarantee below. See the "Adversarial nodes"
// section of EXPERIMENTS.md.
//
// # Adverse networks
//
// internal/netem turns the near-ideal default network hostile: a Netem
// profile describes Gilbert-Elliott bursty loss, scheduled partitions with
// heal, latency spikes/drift, asymmetric per-direction degradation, and
// capability traces that rewrite advertised upload capabilities mid-run.
// Profiles are data: the same value drives the simulator (Scenario.Netem),
// sweep grids (`heapsweep -netem`), and real sockets
// (NodeConfig.Netem, `heapnode -netem`), where identical models rule on
// every datagram a node sends — the simulator's transmit-time consultation
// point, reproduced on the wire. Model verdicts are deterministic functions of the
// run's seed, so adverse runs keep every reproducibility guarantee below;
// with Netem unset the plain loss path is untouched draw for draw.
// Per-model drop/delay counters land in ScenarioResult.NetemStats, and
// `heapbench -artifact robustness` renders the HEAP-vs-standard comparison
// under each stock profile.
//
// # Clustered topologies and hierarchical dissemination
//
// internal/topo embeds a run in a clustered WAN/LAN geometry instead of the
// paper's uniform pairwise-latency band. A topology declares the cluster
// count (optionally size-weighted), intra/inter-cluster latency bands, and
// jitter; set Scenario.Topology and the run's cluster assignment and every
// pair latency become pure hashes of the seed (no rng consumed, so sharded
// runs stay byte-identical). Netem partitions and spikes can target topology
// regions (PartitionSpec.Regions, RegionSpikes), cutting along real cluster
// boundaries, and ScenarioResult.TopoStats accounts the run's inter-cluster
// (WAN) bytes. Scenario.FanoutIntra/FanoutInter then split the gossip fanout
// budget by locality — cluster-biased peer selection with separate intra and
// inter draws, still scaled by HEAP's relative capability — to cut WAN
// traffic without hurting delivery. `heapsweep -topology wan3` gives sweeps
// the topo-blind/topo-aware A/B on the same clustered network, and
// `heapbench -artifact topology` renders the WAN-bytes/stream-quality
// comparison; see the "Topology-aware dissemination" section of
// EXPERIMENTS.md. With Topology unset every path is untouched and results
// are byte-identical to pre-topology builds.
//
// # Observability
//
// internal/telemetry gives every subsystem one reporting surface. A
// lock-free Registry of named counters, gauges and histograms collects the
// transport pacer's byte accounting, the engine's message counters, the
// adaptation controller's capability state, and the detector's quarantine
// counts into a single conservation-checkable snapshot — after shutdown,
// udp_accepted_bytes_total equals udp_sent_bytes_total plus
// udp_discarded_bytes_total exactly. Supply a registry via
// NodeConfig.Telemetry to add application instruments to the same scrape
// (cmd/heapnode does), read it with Node.Telemetry, and serve it with
// Node.StartTelemetry: Prometheus text on /metrics, Go profiling on
// /debug/pprof/*, a liveness probe on /healthz, and a JSON snapshot on
// /statusz (`heapnode -http ADDR`; `heapnode -json` prints the snapshot
// per status tick).
//
// Dissemination tracing records the propose→request→serve path of sampled
// packets. Set Scenario.Trace and every node records hop
// events — publish, first request, serve-path delivery — for the id-modulo
// sampled packet ids into a bounded ring; an offline join then reconstructs
// per-packet hop counts and per-hop latencies (ScenarioResult.TraceStats,
// exportable as JSONL). The tracer is one of the engine's observers
// (core.Observer, like the misbehavior detector): untraced runs have no
// tracer on the list and are byte-identical to pre-trace builds, and the
// tracer itself draws no randomness: traced runs fingerprint
// deterministically and tracing provably never perturbs protocol results
// (TestDeterminismTrace*). `heapbench -artifact trace` renders hop-count and
// per-hop-latency distributions; see the "Observability" section of
// EXPERIMENTS.md for measured paper-scale tables and the overhead benchmark.
//
// # Capacity and determinism guarantees
//
// The simulator's hot path is allocation-free in steady state: events are
// pooled through a free list, a timer is a recycled event slot with no
// handle (timers cannot be canceled, so an event leaves the calendar queue
// only by being popped), and the dissemination engine keeps its per-packet
// state in one dense table per stream — a state byte and a 40-byte slot per
// packet id, sized from the stream geometry, plus a pooled record for each
// id requested and not yet served, reused once it is. A 10,000-node HEAP run is
// routine on one core (minutes of wall clock, a few GB peak); the practical
// ceiling is memory for per-node receive records, roughly
// O(nodes × packets). Full-membership views cost
// O(n²) memory across the system, so past ~1k nodes use the Cyclon peer
// sampler (UsePSS, the LargeScale default).
//
// Determinism: a run is a pure function of its Config — one event loop,
// virtual time, per-node seeded rngs, (time, sequence)-ordered dispatch —
// and a sweep's per-run seeds are derived from grid position before
// scheduling, so results (including every CDF and exported CSV byte) are
// identical for any worker count and across repeated runs. The
// `go test -run Determinism ./...` layer enforces both properties, and
// property tests cross-check the pooled event queue and the per-packet table
// against brute-force oracles.
package heapgossip
