package main

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/netem"
	"repro/internal/ratelimit"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The layer drivers replay input of the workload's shape into one layer's
// public API against a stub runtime and report nanoseconds per operation.
// They price a layer in isolation, which the end-to-end profile cannot:
// a share can shrink because another layer grew.

// layerShape is what a driver needs to know about a workload.
type layerShape struct {
	nodes  int
	fanout float64
	// work scales every driver's operation count: 1 in the benchmark, a
	// small fraction in the smoke test.
	work float64
}

func (sh layerShape) ops(full int) int { return max(1, int(float64(full)*sh.work)) }

// msgMix is a repetition's message mix: how many of each kind, and how big.
type msgMix struct {
	proposes, requests, serves, aggregates, shuffles float64
	idsPerPropose, idsPerRequest, eventsPerServe     float64
	stream                                           wire.StreamID
}

const (
	// idsPerRound is the stream's packets per 200 ms gossip period
	// (600 kbps of 1316-byte packets), the batch a propose usually carries.
	idsPerRound  = 11
	aggFreshestK = 10
	shuffleLen   = 8
)

var (
	fullAggregate wire.Message = &wire.Aggregate{Entries: make([]wire.CapEntry, aggFreshestK)}
	fullShuffle   wire.Message = &wire.ShuffleReq{Descriptors: make([]wire.PeerDescriptor, shuffleLen)}
)

// datagramBytes is what the simulator charges for m; a live node's frame
// carries a 4-byte sender id on top.
func datagramBytes(m wire.Message) int     { return m.WireSize() + wire.UDPOverheadBytes }
func liveDatagramBytes(m wire.Message) int { return datagramBytes(m) + 4 }

func addCoreStats(dst *core.Stats, s core.Stats) {
	dst.ProposesSent += s.ProposesSent
	dst.RequestsSent += s.RequestsSent
	dst.ServesSent += s.ServesSent
	dst.EventsServed += s.EventsServed
	dst.EventsDelivered += s.EventsDelivered
	dst.DuplicateEvents += s.DuplicateEvents
	dst.Retransmissions += s.Retransmissions
	dst.GiveUps += s.GiveUps
}

func coreCounters(out map[string]float64, cs core.Stats, deliveries float64) {
	out["core.proposes_per_delivery"] = float64(cs.ProposesSent) / deliveries
	out["core.requests_per_delivery"] = float64(cs.RequestsSent) / deliveries
	out["core.duplicate_pct"] = pct(cs.DuplicateEvents, cs.DuplicateEvents+cs.EventsDelivered)
	out["core.retransmit_pct"] = pct(cs.Retransmissions, cs.RequestsSent)
	out["core.giveups"] = float64(cs.GiveUps)
}

// coreMix sizes the dissemination messages from the engines' counters; the
// propose size comes from the bytes sent where the substrate counts them per
// kind, and from the stream rate otherwise.
func coreMix(cs core.Stats, proposeBytes float64) msgMix {
	mix := msgMix{
		proposes: float64(cs.ProposesSent), requests: float64(cs.RequestsSent), serves: float64(cs.ServesSent),
		idsPerPropose: idsPerRound,
	}
	if cs.ServesSent > 0 {
		mix.eventsPerServe = float64(cs.EventsServed) / float64(cs.ServesSent)
		mix.idsPerRequest = mix.eventsPerServe
	}
	if proposeBytes > 0 && cs.ProposesSent > 0 {
		empty := float64(datagramBytes(&wire.Propose{}))
		mix.idsPerPropose = (proposeBytes/float64(cs.ProposesSent) - empty) / 8
	}
	return mix
}

// stubRuntime is an env.Runtime with a hand-cranked clock: sends are
// dropped, timers fire when the driver advances time.
type stubRuntime struct {
	id     wire.NodeID
	now    time.Duration
	rng    *rand.Rand
	lastTo wire.NodeID // destination of the latest send
	timers stubTimers
	seq    int
}

type stubTimer struct {
	at      time.Duration
	seq     int
	fn      func()
	stopped bool
}

func (t *stubTimer) Stop() bool {
	was := !t.stopped
	t.stopped = true
	return was
}

type stubTimers []*stubTimer

func (h stubTimers) Len() int { return len(h) }
func (h stubTimers) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h stubTimers) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stubTimers) Push(x any)   { *h = append(*h, x.(*stubTimer)) }
func (h *stubTimers) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

func newStub(id wire.NodeID, seed int64) *stubRuntime {
	return &stubRuntime{id: id, rng: rand.New(rand.NewSource(seed))}
}

func (s *stubRuntime) ID() wire.NodeID                     { return s.id }
func (s *stubRuntime) Now() time.Duration                  { return s.now }
func (s *stubRuntime) Rand() *rand.Rand                    { return s.rng }
func (s *stubRuntime) Send(to wire.NodeID, _ wire.Message) { s.lastTo = to }
func (s *stubRuntime) After(d time.Duration, fn func()) env.Timer {
	t := &stubTimer{at: s.now + d, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.timers, t)
	return t
}
func (s *stubRuntime) AfterFunc(d time.Duration, fn func()) { s.After(d, fn) }

// advance moves the clock to `to`, firing due timers in order on the way.
func (s *stubRuntime) advance(to time.Duration) {
	for len(s.timers) > 0 && s.timers[0].at <= to {
		t := heap.Pop(&s.timers).(*stubTimer)
		s.now = t.at
		if !t.stopped {
			t.fn()
		}
	}
	s.now = to
}

var _ env.Runtime = (*stubRuntime)(nil)

// stopwatch accumulates the time of one kind of call across a driver loop.
type stopwatch struct {
	total time.Duration
	ops   int
	t0    time.Time
}

func (w *stopwatch) start()       { w.t0 = time.Now() }
func (w *stopwatch) stop(ops int) { w.total += time.Since(w.t0); w.ops += ops }
func (w *stopwatch) ns() float64 {
	if w.ops == 0 {
		return 0
	}
	return float64(w.total.Nanoseconds()) / float64(w.ops)
}

// peersOf lists node ids 0..n-1; views drop their own id themselves.
func peersOf(n int) []wire.NodeID {
	out := make([]wire.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, wire.NodeID(i))
	}
	return out
}

// runLayerDrivers runs every driver under a span of its own and returns the
// *_ns metrics (plus the two other numbers only a driver can produce).
func runLayerDrivers(tr *tracer, parent int, sh layerShape, mix msgMix, seed int64) map[string]float64 {
	out := map[string]float64{}
	// A collection lands on whichever call happens to be running, and how
	// often one starts depends on the heap the workload left behind; the
	// drivers price the layers' own work, so they run with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drive := func(layer, name string, fn func() (ops int)) {
		runtime.GC()
		ls := tr.begin("layer:"+layer, parent)
		ds := tr.begin(name, ls)
		ops := fn()
		tr.end(ds, ops)
		tr.end(ls, ops)
	}
	drive("simnet", "relay-events", func() int { return driveSimnetEvents(out, sh, seed) })
	drive("simnet", "tickers", func() int { return driveSimnetTimers(out, sh, seed) })
	drive("core", "propose-serve-request-round", func() int { return driveCore(out, sh, seed) })
	drive("aggregation", "receive-tick", func() int { return driveAggregation(out, sh, seed) })
	drive("membership", "view-sample", func() int { return driveViewSample(out, sh, seed) })
	drive("membership", "cyclon", func() int { return driveCyclon(out, sh, seed) })
	drive("wire", "codec-mix", func() int { return driveWire(out, sh, mix) })
	drive("netem", "bernoulli-judge", func() int { return driveNetem(out, sh, seed) })
	drive("ratelimit", "unpaced-drain", func() int { return driveUnpaced(out, sh) })
	drive("ratelimit", "paced-release", func() int { return drivePaced(out, sh) })
	drive("stream", "receiver", func() int { return driveReceiver(out, sh) })
	return out
}

// relayHandler keeps one message per node in flight forever: every arrival
// is forwarded to a random peer, so the event heap stays as deep as the
// workload's node count while nothing but the simulator does any work.
type relayHandler struct {
	rt  env.Runtime
	n   int
	msg wire.Message
}

func (h *relayHandler) Start(rt env.Runtime) { h.rt = rt; h.forward() }
func (h *relayHandler) Stop()                {}
func (h *relayHandler) Receive(wire.NodeID, wire.Message) {
	h.forward()
}
func (h *relayHandler) forward() {
	to := wire.NodeID(h.rt.Rand().Intn(h.n - 1))
	if to >= h.rt.ID() {
		to++
	}
	h.rt.Send(to, h.msg)
}

func newDriverNet(seed int64) *simnet.Network {
	return simnet.New(simnet.Config{
		Seed:     seed,
		Latency:  simnet.NewPairwiseLatency(seed, 10*time.Millisecond, 100*time.Millisecond, 5*time.Millisecond),
		LossRate: 0, // a lost relay message would thin the heap out
	})
}

func driveSimnetEvents(out map[string]float64, sh layerShape, seed int64) int {
	net := newDriverNet(seed)
	msg := &wire.Propose{IDs: make([]wire.PacketID, idsPerRound)}
	for i := 0; i < sh.nodes; i++ {
		net.AddNode(&relayHandler{n: sh.nodes, msg: msg}, simnet.NodeConfig{UploadBps: 10_000_000})
	}
	// ~55 ms mean latency: each node relays about 18 messages per second.
	horizon := time.Duration(float64(sh.ops(400_000))/(18*float64(sh.nodes))*float64(time.Second)) + time.Second
	t0 := time.Now()
	net.Run(horizon)
	events := net.Stats().EventsProcessed
	out["simnet.event_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(events)
	return int(events)
}

// tickHandler runs one bare periodic ticker, the timer pattern of every
// protocol layer (gossip rounds, aggregation ticks, shuffles).
type tickHandler struct{ ticks int }

func (h *tickHandler) Start(rt env.Runtime) {
	phase := time.Duration(rt.Rand().Int63n(int64(200 * time.Millisecond)))
	env.NewTicker(rt, phase, 200*time.Millisecond, func() { h.ticks++ })
}
func (h *tickHandler) Stop()                             {}
func (h *tickHandler) Receive(wire.NodeID, wire.Message) {}

func driveSimnetTimers(out map[string]float64, sh layerShape, seed int64) int {
	net := newDriverNet(seed)
	for i := 0; i < sh.nodes; i++ {
		net.AddNode(&tickHandler{}, simnet.NodeConfig{})
	}
	horizon := time.Duration(float64(sh.ops(400_000))/(5*float64(sh.nodes))*float64(time.Second)) + time.Second
	t0 := time.Now()
	net.Run(horizon)
	events := net.Stats().EventsProcessed
	out["simnet.timer_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(events)
	return int(events)
}

type unitCapability struct{}

func (unitCapability) RelativeCapability() float64 { return 1 }

// driveCore walks one engine through gossip periods the way a mid-stream
// node sees them: the period's ids are proposed by about fanout peers (the
// first proposal is requested, the rest only add alternate proposers), the
// requested peer serves them, another peer requests them from us, and the
// round timer proposes them onward.
func driveCore(out map[string]float64, sh layerShape, seed int64) int {
	cycles := sh.ops(4000)
	rt := newStub(0, seed)
	geom := stream.PaperGeometry()
	eng := core.MustNew(core.Config{
		Fanout:          sh.fanout,
		Adaptive:        true,
		Capabilities:    unitCapability{},
		Sampler:         membership.NewView(0, peersOf(sh.nodes)),
		ExpectedPackets: cycles * idsPerRound,
		OnDeliver:       func(wire.Event, time.Duration) {},
	})
	eng.Start(rt)
	payload := geom.PayloadFor(0)
	proposers := int(math.Round(sh.fanout))
	var propose, serve, request, round stopwatch
	for c := 0; c < cycles; c++ {
		ids := make([]wire.PacketID, idsPerRound)
		events := make([]wire.Event, idsPerRound)
		for i := range ids {
			ids[i] = wire.PacketID(c*idsPerRound + i)
			events[i] = wire.Event{ID: ids[i], Stamp: int64(rt.now), Payload: payload}
		}
		msg := &wire.Propose{IDs: ids}
		first := wire.NodeID(1 + rt.rng.Intn(sh.nodes-1))
		propose.start()
		for p := 0; p < proposers; p++ {
			eng.Receive(wire.NodeID(1+(int(first)-1+p)%(sh.nodes-1)), msg)
		}
		propose.stop(proposers)

		serve.start()
		eng.Receive(first, &wire.Serve{Events: events})
		serve.stop(1)

		request.start()
		eng.Receive(first, &wire.Request{IDs: ids})
		request.stop(1)

		round.start()
		rt.advance(rt.now + 200*time.Millisecond)
		round.stop(1)
	}
	eng.Stop()
	out["core.propose_ns"] = propose.ns()
	out["core.serve_ns"] = serve.ns()
	out["core.request_ns"] = request.ns()
	out["core.round_ns"] = round.ns()
	return propose.ops + serve.ops + request.ops + round.ops
}

// driveAggregation runs one estimator through gossip periods: per period its
// own tick plus one message of the freshest entries of random owners, which
// is what a node receives when every peer gossips to one target per period.
func driveAggregation(out map[string]float64, sh layerShape, seed int64) int {
	cycles := sh.ops(30_000)
	rt := newStub(0, seed)
	est := aggregation.NewEstimator(aggregation.Config{
		SelfCapKbps: 700,
		Sampler:     membership.NewView(0, peersOf(sh.nodes)),
	})
	est.Start(rt)
	k := min(aggFreshestK, sh.nodes-1)
	var receive, tick stopwatch
	for c := 0; c < cycles; c++ {
		entries := make([]wire.CapEntry, 0, k)
		for _, p := range rt.rng.Perm(sh.nodes - 1)[:k] {
			entries = append(entries, wire.CapEntry{
				Node: wire.NodeID(p + 1), CapKbps: 300 + uint32(p%8)*300, AgeMs: uint32(rt.rng.Intn(600)),
			})
		}
		msg := &wire.Aggregate{Entries: entries}
		receive.start()
		est.Receive(entries[0].Node, msg)
		receive.stop(1)

		tick.start()
		rt.advance(rt.now + 200*time.Millisecond)
		tick.stop(1)
	}
	est.Stop()
	out["aggregation.receive_ns"] = receive.ns()
	out["aggregation.tick_ns"] = tick.ns()
	return receive.ops + tick.ops
}

func driveViewSample(out map[string]float64, sh layerShape, seed int64) int {
	draws := sh.ops(1_000_000)
	view := membership.NewView(0, peersOf(sh.nodes))
	rng := rand.New(rand.NewSource(seed))
	k := int(math.Ceil(sh.fanout))
	var dst []wire.NodeID
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		dst = view.AppendPeers(dst[:0], rng, k)
	}
	out["membership.view_sample_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(draws)
	return draws
}

// driveCyclon measures a gossip-target draw from a full partial view, and a
// whole shuffle exchange as one node lives it: initiate, merge the reply,
// and answer one incoming request.
func driveCyclon(out map[string]float64, sh layerShape, seed int64) int {
	const viewSize = 24 // scenario.Config's PSSViewSize default
	draws, shuffles := sh.ops(1_000_000), sh.ops(100_000)
	rt := newStub(0, seed)
	pool := max(sh.nodes, 4*viewSize) // ids the view can learn of
	boot := make([]wire.NodeID, 0, viewSize)
	for _, p := range rt.rng.Perm(pool - 1)[:viewSize] {
		boot = append(boot, wire.NodeID(p+1))
	}
	cy := membership.NewCyclon(membership.CyclonConfig{ViewSize: viewSize, Period: time.Second}, boot)
	cy.Start(rt)
	descriptors := func() []wire.PeerDescriptor {
		ds := make([]wire.PeerDescriptor, shuffleLen)
		for i := range ds {
			ds[i] = wire.PeerDescriptor{Node: wire.NodeID(1 + rt.rng.Intn(pool-1)), Age: uint16(rt.rng.Intn(20))}
		}
		return ds
	}
	var shuffle stopwatch
	for i := 0; i < shuffles; i++ {
		reply := &wire.ShuffleReply{Descriptors: descriptors()}
		req := &wire.ShuffleReq{Descriptors: descriptors()}
		from := wire.NodeID(1 + rt.rng.Intn(pool-1))
		shuffle.start()
		rt.advance(rt.now + time.Second) // the shuffle tick: sends a ShuffleReq
		cy.Receive(rt.lastTo, reply)
		cy.Receive(from, req)
		shuffle.stop(1)
	}
	out["membership.cyclon_shuffle_ns"] = shuffle.ns()

	k := int(math.Ceil(sh.fanout))
	var dst []wire.NodeID
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		dst = cy.AppendPeers(dst[:0], rt.rng, k)
	}
	out["membership.cyclon_sample_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(draws)
	cy.Stop()
	return draws + shuffles
}

// driveWire prices the codec on the repetition's own message mix: one sample
// message per kind at the mean size the run sent, weighted by how many the
// run sent.
func driveWire(out map[string]float64, sh layerShape, mix msgMix) int {
	perKind := sh.ops(100_000)
	ids := func(n float64) []wire.PacketID { return make([]wire.PacketID, max(1, int(math.Round(n)))) }
	payload := stream.PaperGeometry().PayloadFor(0)
	events := make([]wire.Event, max(1, int(math.Round(mix.eventsPerServe))))
	for i := range events {
		events[i] = wire.Event{ID: wire.PacketID(i), Payload: payload}
	}
	kinds := []struct {
		weight float64
		msg    wire.Message
	}{
		{mix.proposes, &wire.Propose{Stream: mix.stream, IDs: ids(mix.idsPerPropose)}},
		{mix.requests, &wire.Request{Stream: mix.stream, IDs: ids(mix.idsPerRequest)}},
		{mix.serves, &wire.Serve{Stream: mix.stream, Events: events}},
		{mix.aggregates, fullAggregate},
		{mix.shuffles, fullShuffle},
	}
	var marshal, unmarshal, allocs, weights float64
	ops := 0
	buf := make([]byte, 0, 64*1024)
	for _, k := range kinds {
		if k.weight <= 0 {
			continue
		}
		t0 := time.Now()
		for i := 0; i < perKind; i++ {
			buf = k.msg.MarshalBinary(buf[:0])
		}
		marshalNs := float64(time.Since(t0).Nanoseconds()) / float64(perKind)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		for i := 0; i < perKind; i++ {
			if _, err := wire.Unmarshal(buf); err != nil {
				panic("benchmark: wire round trip failed: " + err.Error())
			}
		}
		unmarshalNs := float64(time.Since(t0).Nanoseconds()) / float64(perKind)
		runtime.ReadMemStats(&ms1)

		marshal += k.weight * marshalNs
		unmarshal += k.weight * unmarshalNs
		allocs += k.weight * float64(ms1.Mallocs-ms0.Mallocs) / float64(perKind)
		weights += k.weight
		ops += 2 * perKind
	}
	if weights > 0 {
		out["wire.marshal_ns"] = marshal / weights
		out["wire.unmarshal_ns"] = unmarshal / weights
		out["wire.allocs_per_unmarshal"] = allocs / weights
	}
	return ops
}

func driveNetem(out map[string]float64, sh layerShape, seed int64) int {
	judges := sh.ops(5_000_000)
	var model netem.Model = netem.Bernoulli{P: 0.001} // scenario.Config's LossRate default
	rng := rand.New(rand.NewSource(seed))
	drops := 0
	t0 := time.Now()
	for i := 0; i < judges; i++ {
		if model.Judge(1, 2, 1347, time.Duration(i), rng).Drop {
			drops++
		}
	}
	out["netem.judge_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(judges)
	if drops == 0 || drops == judges {
		panic("benchmark: the Bernoulli model did not draw")
	}
	return judges
}

// driveUnpaced pushes items through an unlimited sender with udpnet's queue
// and batch sizes, throttled only by the queue's own back-pressure.
func driveUnpaced(out map[string]float64, sh layerShape) int {
	items := sh.ops(2_000_000)
	var flushed atomic.Int64
	s, err := ratelimit.NewBatchSender(0, 1024, 32,
		func(int) int { return 103 },
		func(batch []int) { flushed.Add(int64(len(batch))) })
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	for i := 0; i < items; i++ {
		for !s.Enqueue(i) {
			runtime.Gosched()
		}
	}
	for flushed.Load() < int64(items) {
		runtime.Gosched()
	}
	out["ratelimit.unpaced_ns_per_item"] = float64(time.Since(t0).Nanoseconds()) / float64(items)
	s.Close()
	return items
}

// drivePaced hands a 768 kbps pacer a burst of serves and measures how far
// each release lands from one serialization time after the previous one —
// the slack that, summed over a queue, a constrained node loses in upload.
func drivePaced(out map[string]float64, sh layerShape) int {
	items := sh.ops(60)
	const (
		rateBps = 768_000
		size    = 1316 + 18 + 3 + 4 + wire.UDPOverheadBytes // one-event serve on a live node
	)
	released := make(chan time.Time, items) // every release lands without blocking the pacer
	s, err := ratelimit.NewSender(rateBps, items, func(int) int { return size }, func(int) { released <- time.Now() })
	if err != nil {
		panic(err)
	}
	prev := time.Now()
	for i := 0; i < items; i++ {
		s.Enqueue(i)
	}
	ser := time.Duration(size * 8 * int(time.Second) / rateBps)
	errsUs := make([]float64, 0, items)
	for i := 0; i < items; i++ {
		at := <-released
		errsUs = append(errsUs, math.Abs(float64(at.Sub(prev)-ser))/1e3)
		prev = at
	}
	s.Close()
	sort.Float64s(errsUs)
	out["ratelimit.paced_release_err_us_p99"] = percentile(errsUs, 99)
	return items
}

func driveReceiver(out map[string]float64, sh layerShape) int {
	windows := sh.ops(2000)
	geom := stream.PaperGeometry()
	rcv, err := stream.NewReceiver(geom, windows, false)
	if err != nil {
		panic(err)
	}
	payload := geom.PayloadFor(0)
	total := geom.TotalPackets(windows)
	t0 := time.Now()
	for id := 0; id < total; id++ {
		rcv.OnDeliver(wire.Event{ID: wire.PacketID(id), Stamp: int64(id), Payload: payload}, time.Duration(id+1))
	}
	out["stream.receiver_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(total)
	return total
}
