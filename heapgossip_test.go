package heapgossip

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
)

func TestRunScenarioThroughPublicAPI(t *testing.T) {
	geom := PaperGeometry()
	geom.DataPerWindow = 20
	geom.ParityPerWindow = 2
	res, err := RunScenario(Scenario{
		Nodes:         40,
		Protocol:      HEAP,
		Dist:          Ref691,
		Windows:       5,
		Geometry:      geom,
		Seed:          1,
		StreamStart:   2 * time.Second,
		Drain:         20 * time.Second,
		Unconstrained: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	share := res.Run.JitterFreeShare(&res.Run.Nodes[1], Never)
	if share <= 0 {
		t.Fatalf("node 1 decoded no windows (share=%v)", share)
	}
	if len(res.CapsKbps) != 40 {
		t.Fatalf("caps length %d", len(res.CapsKbps))
	}
}

func TestStartNodeValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{ID: 1}); err == nil {
		t.Fatal("missing UploadKbps accepted")
	}
	if _, err := StartNode(NodeConfig{ID: 1, UploadKbps: 1000,
		Peers: map[NodeID]string{2: "not-an-address"}}); err == nil {
		t.Fatal("bad peer address accepted")
	}
}

func TestStartNodeRejectsOutOfRangePeerID(t *testing.T) {
	for _, id := range []NodeID{-1, 1 << 20} {
		n, err := StartNode(NodeConfig{ID: 1, UploadKbps: 1000,
			Peers: map[NodeID]string{1: "127.0.0.1:0", id: "127.0.0.1:9"}})
		if err == nil {
			n.Close()
			t.Fatalf("peer id %d accepted", id)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(int(id))) {
			t.Fatalf("error %q does not name peer id %d", err, id)
		}
	}
}

func TestUDPNodesStreamThroughPublicAPI(t *testing.T) {
	const nodes = 8
	geom := Geometry{RateBps: 500_000, PacketBytes: 200, DataPerWindow: 8, ParityPerWindow: 2}
	const windows = 3

	// Start nodes on ephemeral ports first, then distribute the directory.
	started := make([]*Node, 0, nodes)
	defer func() {
		for _, n := range started {
			n.Close()
		}
	}()

	var mu sync.Mutex
	received := make(map[NodeID]int, nodes)

	addrs := make(map[NodeID]string, nodes)
	for i := 0; i < nodes; i++ {
		id := NodeID(i)
		cfg := NodeConfig{
			ID:           id,
			UploadKbps:   5000,
			Adaptive:     true,
			Fanout:       4,
			GossipPeriod: 30 * time.Millisecond,
			OnDeliver: func(StreamID, PacketID, []byte, time.Duration) {
				mu.Lock()
				received[id]++
				mu.Unlock()
			},
		}
		if i == 0 {
			cfg.Source = &SourceConfig{
				Geometry:   geom,
				Windows:    windows,
				StartDelay: 500 * time.Millisecond,
			}
		}
		n, err := StartNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, n)
		addrs[id] = n.Addr().String()
	}
	// Late directory distribution: AddPeer after startup.
	for i, n := range started {
		for id, addr := range addrs {
			if id == NodeID(i) {
				continue
			}
			udpAddr := started[id].Addr()
			n.AddPeer(id, udpAddr)
			_ = addr
		}
	}

	total := geom.TotalPackets(windows) // 30 packets
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		sum := 0
		for id, c := range received {
			if id != 0 {
				sum += c
			}
		}
		mu.Unlock()
		if sum >= (nodes-1)*total*90/100 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Release mu before touching a node again: a node delivering holds its
	// own mutex while OnDeliver waits for mu, so Close or an accessor called
	// under mu would deadlock with it.
	mu.Lock()
	sum := 0
	for id, c := range received {
		if id != 0 {
			sum += c
		}
	}
	mu.Unlock()
	if sum < (nodes-1)*total*90/100 {
		t.Fatalf("system delivered %d of %d", sum, (nodes-1)*total)
	}
	if !started[0].SourceDone() {
		t.Fatal("source did not finish")
	}
	if est := started[1].EstimateKbps(); est <= 0 {
		t.Fatalf("HEAP node has no capability estimate: %v", est)
	}

	// Accessors stay truthful after Close.
	started[0].Close()
	started[1].Close()
	if !started[0].SourceDone() {
		t.Fatal("SourceDone lost after Close")
	}
	if est := started[1].EstimateKbps(); est <= 0 {
		t.Fatalf("post-Close capability estimate: %v", est)
	}
	if st := started[1].Stats(); st.EventsDelivered == 0 {
		t.Fatalf("post-Close stats: %+v", st)
	}
}

// TestUDPMultiSourceStreams drives the multi-source public API over real
// sockets: node 0 broadcasts stream 0 via NodeConfig.Source, node 1 opens
// stream 1 mid-run with Node.OpenStream, and every other node must deliver
// both streams (tracking stream 1 lazily, with no configuration).
func TestUDPMultiSourceStreams(t *testing.T) {
	const nodes = 5
	geom := Geometry{RateBps: 400_000, PacketBytes: 200, DataPerWindow: 6, ParityPerWindow: 2}
	const windows = 2

	started := make([]*Node, 0, nodes)
	defer func() {
		for _, n := range started {
			n.Close()
		}
	}()

	var mu sync.Mutex
	perStream := make(map[StreamID]map[NodeID]int)

	for i := 0; i < nodes; i++ {
		id := NodeID(i)
		cfg := NodeConfig{
			ID:           id,
			UploadKbps:   5000,
			Adaptive:     true,
			Fanout:       3,
			GossipPeriod: 30 * time.Millisecond,
			OnDeliver: func(stream StreamID, _ PacketID, _ []byte, _ time.Duration) {
				mu.Lock()
				if perStream[stream] == nil {
					perStream[stream] = make(map[NodeID]int)
				}
				perStream[stream][id]++
				mu.Unlock()
			},
		}
		if i == 0 {
			cfg.Source = &SourceConfig{
				Geometry:   geom,
				Windows:    windows,
				StartDelay: 400 * time.Millisecond,
			}
		}
		n, err := StartNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, n)
	}
	for i, n := range started {
		for j, m := range started {
			if i != j {
				n.AddPeer(NodeID(j), m.Addr())
			}
		}
	}

	// Node 1 becomes the second broadcaster while the deployment runs.
	h, err := started[1].OpenStream(1, SourceConfig{
		Geometry:   geom,
		Windows:    windows,
		StartDelay: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != 1 {
		t.Fatalf("handle id = %d", h.ID())
	}
	// A colliding stream id must be rejected.
	if _, err := started[0].OpenStream(0, SourceConfig{Geometry: geom, Windows: 1}); err == nil {
		t.Fatal("OpenStream accepted the id of the NodeConfig.Source stream")
	}

	total := geom.TotalPackets(windows)
	want := func(stream StreamID, srcID NodeID) int {
		// Every non-broadcaster node should get ~all packets of the stream.
		return int(float64((nodes-1)*total) * 0.9)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		s0, s1 := 0, 0
		for nid, c := range perStream[0] {
			if nid != 0 {
				s0 += c
			}
		}
		for nid, c := range perStream[1] {
			if nid != 1 {
				s1 += c
			}
		}
		mu.Unlock()
		if s0 >= want(0, 0) && s1 >= want(1, 1) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, tc := range []struct {
		stream StreamID
		src    NodeID
	}{{0, 0}, {1, 1}} {
		// mu is not held past the sum: see TestUDPNodesStreamThroughPublicAPI.
		mu.Lock()
		sum := 0
		for nid, c := range perStream[tc.stream] {
			if nid != tc.src {
				sum += c
			}
		}
		mu.Unlock()
		if sum < want(tc.stream, tc.src) {
			t.Fatalf("stream %d delivered %d of %d across receivers", tc.stream, sum, (nodes-1)*total)
		}
	}
	if !h.Done() {
		t.Fatal("stream handle not done after full delivery")
	}
	if h.Published() != total {
		t.Fatalf("handle published %d of %d", h.Published(), total)
	}
}

func TestStandardUDPNodeBasics(t *testing.T) {
	// A standard (non-adaptive) node: no estimator, EstimateKbps reports 0.
	a, err := StartNode(NodeConfig{ID: 0, UploadKbps: 5000, Adaptive: false,
		GossipPeriod: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := StartNode(NodeConfig{ID: 1, UploadKbps: 5000, Adaptive: false,
		GossipPeriod: 50 * time.Millisecond,
		Peers:        map[NodeID]string{0: a.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())
	if est := a.EstimateKbps(); est != 0 {
		t.Fatalf("standard node estimate = %v, want 0", est)
	}
	if a.SourceDone() {
		t.Fatal("node without source reports SourceDone")
	}
	a.RemovePeer(1)
	a.AddPeer(1, b.Addr())
	st := a.Stats()
	if st.EventsDelivered != 0 {
		t.Fatalf("unexpected deliveries: %+v", st)
	}
}

// TestNodeCapTraceSteps plays a netem capability trace covering one live
// node: a step due after start reaches the advertisement, the latest of the
// steps already past at start applies before StartNode returns, and a step
// still pending at Close never applies.
func TestNodeCapTraceSteps(t *testing.T) {
	start := func(epoch time.Time, steps ...netem.CapStep) *Node {
		t.Helper()
		n, err := StartNode(NodeConfig{ID: 1, UploadKbps: 1000, Adaptive: true,
			Epoch: epoch,
			Netem: &Netem{Name: "trace", CapTraces: []netem.CapTraceSpec{
				{Nodes: []NodeID{1}, Steps: steps},
			}}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("future step applies", func(t *testing.T) {
		n := start(time.Time{}, netem.CapStep{At: 50 * time.Millisecond, Factor: 0.5})
		defer n.Close()
		deadline := time.Now().Add(3 * time.Second)
		for n.AdvertisedKbps() != 500 {
			if time.Now().After(deadline) {
				t.Fatalf("AdvertisedKbps = %d, want 500 once the step is due", n.AdvertisedKbps())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})

	t.Run("latest past step applies at start, pending step never after Close", func(t *testing.T) {
		n := start(time.Now().Add(-10*time.Second),
			netem.CapStep{At: time.Second, Factor: 0.5},
			netem.CapStep{At: 5 * time.Second, Factor: 0.25},
			netem.CapStep{At: 10*time.Second + 100*time.Millisecond, Factor: 2})
		if got := n.AdvertisedKbps(); got != 250 {
			t.Fatalf("AdvertisedKbps after StartNode = %d, want 250 (the latest past step)", got)
		}
		n.Close()
		time.Sleep(300 * time.Millisecond)
		if got := n.AdvertisedKbps(); got != 250 {
			t.Fatalf("AdvertisedKbps after Close = %d, want 250 (the pending step must not fire)", got)
		}
	})
}

// TestPublicAPISurface pins the facade: heapgossip.go exports exactly what
// the command-line programs, examples/lan, the benchmark module and the
// package's Examples use, so a new re-export is a deliberate edit here.
func TestPublicAPISurface(t *testing.T) {
	want := []string{
		"AdaptConfig", "Distribution", "EngineStats", "Geometry", "HEAP",
		"MS691", "MisbehaveConfig", "MisbehaveEvidence", "Netem",
		"NetemProfile", "NetemProfileNames", "Never", "NewTelemetryRegistry",
		"NodeID", "NodeRecord", "PacketID", "PaperGeometry", "Protocol",
		"Ref691", "Ref724", "Run", "RunScenario", "RunSweep", "Scenario",
		"ScenarioResult", "Seconds", "StandardGossip", "StaticTree",
		"StreamID", "Sweep", "SweepResult", "TelemetryRegistry",
		"TelemetryServer", "Uniform691",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "heapgossip.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			got = append(got, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					got = append(got, sp.Name.Name)
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						got = append(got, name.Name)
					}
				}
			}
		}
	}
	got = slices.DeleteFunc(got, func(name string) bool { return !ast.IsExported(name) })
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("heapgossip.go exports\n%q\nwant\n%q", got, want)
	}

	// The facade re-exports the Table 1 distributions and geometry.
	if Ref691.Name() != "ref-691" || MS691.Name() != "ms-691" ||
		Ref724.Name() != "ref-724" || Uniform691.Name() != "uniform-691" {
		t.Fatal("distribution re-exports broken")
	}
	g := PaperGeometry()
	if g.DataPerWindow != 101 || g.ParityPerWindow != 9 {
		t.Fatalf("paper geometry = %+v", g)
	}
	if Seconds(Never) < 1e18 {
		t.Fatal("Seconds(Never) should be +Inf-ish")
	}
	if Seconds(2*time.Second) != 2 {
		t.Fatal("Seconds conversion broken")
	}
}

// TestUDPNodeMisbehaveDetector runs a small live-UDP deployment with the
// misbehavior detector armed on every non-source node: honest cooperating
// peers must never be quarantined (a zero-false-positive check over real
// socket timing), evidence must accumulate for the source, and the detector
// accessors must stay truthful after Close.
func TestUDPNodeMisbehaveDetector(t *testing.T) {
	const nodes = 5
	geom := Geometry{RateBps: 400_000, PacketBytes: 200, DataPerWindow: 6, ParityPerWindow: 2}
	const windows = 2

	started := make([]*Node, 0, nodes)
	defer func() {
		for _, n := range started {
			n.Close()
		}
	}()

	var mu sync.Mutex
	received := make(map[NodeID]int, nodes)

	for i := 0; i < nodes; i++ {
		id := NodeID(i)
		cfg := NodeConfig{
			ID:           id,
			UploadKbps:   5000,
			Adaptive:     true,
			Fanout:       4,
			GossipPeriod: 30 * time.Millisecond,
			OnDeliver: func(StreamID, PacketID, []byte, time.Duration) {
				mu.Lock()
				received[id]++
				mu.Unlock()
			},
		}
		if i == 0 {
			cfg.Source = &SourceConfig{
				Geometry:   geom,
				Windows:    windows,
				StartDelay: 500 * time.Millisecond,
			}
		} else {
			cfg.Misbehave = &MisbehaveConfig{Armed: true}
		}
		n, err := StartNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, n)
	}
	for i, n := range started {
		for j, peer := range started {
			if i != j {
				n.AddPeer(NodeID(j), peer.Addr())
			}
		}
	}

	total := geom.TotalPackets(windows)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		sum := 0
		for id, c := range received {
			if id != 0 {
				sum += c
			}
		}
		mu.Unlock()
		if sum >= (nodes-1)*total*90/100 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	sum := 0
	for id, c := range received {
		if id != 0 {
			sum += c
		}
	}
	mu.Unlock()
	if sum < (nodes-1)*total*90/100 {
		t.Fatalf("system delivered %d of %d with detectors armed", sum, (nodes-1)*total)
	}

	// All peers cooperated: an armed detector must hold nobody.
	for i := 1; i < nodes; i++ {
		if q := started[i].QuarantinedPeers(); len(q) != 0 {
			t.Fatalf("node %d quarantined honest peers %v", i, q)
		}
	}
	// The source proposed packets to everyone; at least one detector saw it.
	ev, ok := started[1].MisbehaveEvidence(0)
	if !ok {
		t.Fatal("node 1 collected no evidence about the source")
	}
	if ev.ProposesSeen == 0 && ev.ServedEvents == 0 {
		t.Fatalf("source evidence empty: %+v", ev)
	}
	// A node without a Misbehave config reports nothing, not garbage.
	if _, ok := started[0].MisbehaveEvidence(1); ok {
		t.Fatal("detector-less source returned evidence")
	}
	if started[0].QuarantinedPeers() != nil {
		t.Fatal("detector-less source returned a quarantine set")
	}
	if started[1].SendQueueBacklog() < 0 {
		t.Fatal("negative send-queue backlog")
	}

	// Accessors stay truthful after Close.
	started[1].Close()
	if q := started[1].QuarantinedPeers(); len(q) != 0 {
		t.Fatalf("post-Close quarantine set %v", q)
	}
	if _, ok := started[1].MisbehaveEvidence(0); !ok {
		t.Fatal("evidence lost after Close")
	}
	if st := started[1].Stats(); st.EventsDelivered == 0 {
		t.Fatalf("post-Close stats: %+v", st)
	}
	if est := started[1].EstimateKbps(); est <= 0 {
		t.Fatalf("post-Close capability estimate: %v", est)
	}
	started[0].Close()
	if !started[0].SourceDone() {
		t.Fatal("SourceDone lost after Close")
	}
}
