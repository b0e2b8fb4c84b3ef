package udpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/stream"
	"repro/internal/wire"
)

// collector records received messages thread-safely via the node mutex
// (callbacks are serialized; the test reads after synchronization points).
// A message is only valid during Receive (env.Handler), so it keeps a copy.
type collector struct {
	mu  sync.Mutex
	got []wire.Message
}

func (c *collector) Start(env.Runtime) {}
func (c *collector) Stop()             {}
func (c *collector) Receive(_ wire.NodeID, m wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept, err := wire.Unmarshal(wire.Marshal(m))
	if err != nil {
		panic(err)
	}
	c.got = append(c.got, kept)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestBasicExchange(t *testing.T) {
	recv := &collector{}
	a, err := NewNode(0, &sendOnStart{to: 1}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(1, recv, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	peers := map[wire.NodeID]*net.UDPAddr{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return recv.count() >= 1 })
}

// sendOnStart sends one propose to a fixed peer when started.
type sendOnStart struct {
	to wire.NodeID
}

func (s *sendOnStart) Start(rt env.Runtime) {
	rt.Send(s.to, &wire.Propose{IDs: []wire.PacketID{7}})
}
func (s *sendOnStart) Receive(wire.NodeID, wire.Message) {}
func (s *sendOnStart) Stop()                             {}

func TestStartTwiceFails(t *testing.T) {
	n, err := NewNode(0, &collector{}, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestCloseIdempotentAndStopsHandler(t *testing.T) {
	h := &lifecycle{}
	n, err := NewNode(0, h, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
	if h.stops != 1 {
		t.Fatalf("handler stopped %d times, want 1", h.stops)
	}
}

type lifecycle struct {
	mu     sync.Mutex
	stops  int
	starts int
}

func (l *lifecycle) Start(env.Runtime) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.starts++
}
func (l *lifecycle) Receive(wire.NodeID, wire.Message) {}
func (l *lifecycle) Stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stops++
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	recv := &collector{}
	n, err := NewNode(0, recv, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	// Fire raw garbage at the socket.
	conn, err := net.DialUDP("udp", nil, n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payloads := [][]byte{
		{},
		{1, 2},                 // short frame
		{0, 0, 0, 9, 99, 1, 2}, // unknown kind
		{0, 0, 0, 9, 1},        // truncated propose
	}
	for _, p := range payloads {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	// Then a valid message to prove the loop survived.
	valid := make([]byte, 4)
	valid = (&wire.Propose{IDs: []wire.PacketID{1}}).MarshalBinary(valid)
	if _, err := conn.Write(valid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return recv.count() >= 1 })
}

func TestTimersRunUnderMutex(t *testing.T) {
	fired := make(chan time.Duration, 2)
	h := timerHandler{fired: fired}
	n, err := NewNode(0, h, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(3 * time.Second):
		t.Fatal("timer did not fire")
	}
}

type timerHandler struct {
	fired chan time.Duration
}

func (h timerHandler) Start(rt env.Runtime) {
	rt.AfterFunc(20*time.Millisecond, func() {
		select {
		case h.fired <- rt.Now():
		default:
		}
	})
}
func (h timerHandler) Receive(wire.NodeID, wire.Message) {}
func (h timerHandler) Stop()                             {}

// TestStreamingOverLoopback runs the full stack — engines, source, FEC
// receivers — over real UDP sockets on localhost.
func TestStreamingOverLoopback(t *testing.T) {
	const nodes = 12
	geom := stream.Geometry{RateBps: 800_000, PacketBytes: 200, DataPerWindow: 10, ParityPerWindow: 2}
	const windows = 4

	dir := membership.NewDirectory(nodes)
	receivers := make([]*stream.Receiver, nodes)
	udpNodes := make([]*Node, nodes)
	addrs := make(map[wire.NodeID]*net.UDPAddr, nodes)

	for i := 0; i < nodes; i++ {
		id := wire.NodeID(i)
		rcv, err := stream.NewReceiver(geom, windows, true)
		if err != nil {
			t.Fatal(err)
		}
		receivers[i] = rcv
		eng, err := core.New(core.Config{
			Fanout:       5,
			GossipPeriod: 30 * time.Millisecond,
			RetPeriod:    300 * time.Millisecond,
			Sampler:      dir.ViewFor(id),
			OnDeliver:    rcv.OnDeliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := env.NewMux()
		mux.Register(eng, wire.KindPropose, wire.KindRequest, wire.KindServe)
		if i == 0 {
			src, err := stream.NewSource(stream.SourceConfig{
				Geometry:  geom,
				Windows:   windows,
				StartAt:   300 * time.Millisecond,
				Publisher: eng,
			})
			if err != nil {
				t.Fatal(err)
			}
			mux.Register(src)
		}
		n, err := NewNode(id, mux, Config{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		udpNodes[i] = n
		addrs[id] = n.Addr()
	}
	defer func() {
		for _, n := range udpNodes {
			n.Close()
		}
	}()
	for _, n := range udpNodes {
		n.SetPeers(addrs)
	}
	for _, n := range udpNodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Gossip leaves a small per-(node,packet) residual miss rate (~e^-f),
	// so assert strong system-wide delivery rather than perfection at every
	// node.
	total := geom.TotalPackets(windows)
	waitFor(t, 20*time.Second, func() bool {
		sum := 0
		for i := 1; i < nodes; i++ {
			udpNodes[i].mu.Lock()
			sum += receivers[i].Received()
			udpNodes[i].mu.Unlock()
		}
		return sum >= (nodes-1)*total*92/100
	})
	// Synchronize before reading verify counters.
	for i := 1; i < nodes; i++ {
		udpNodes[i].mu.Lock()
		if receivers[i].VerifyFailures != 0 {
			udpNodes[i].mu.Unlock()
			t.Fatalf("node %d: payload verification failed over UDP", i)
		}
		udpNodes[i].mu.Unlock()
	}
}

func TestThrottledNodePacesUploads(t *testing.T) {
	// A throttled sender pushing 20 large proposes at 256 kbps must take
	// noticeably longer than an unthrottled one.
	run := func(bps int64) time.Duration {
		recv := &collector{}
		b, err := NewNode(1, recv, Config{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		h := &burstSender{to: 1, n: 20}
		a, err := NewNode(0, h, Config{Seed: 9, UploadBps: bps})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		peers := map[wire.NodeID]*net.UDPAddr{0: a.Addr(), 1: b.Addr()}
		a.SetPeers(peers)
		b.SetPeers(peers)
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, func() bool { return recv.count() >= 20 })
		return time.Since(start)
	}
	unthrottled := run(0)
	throttled := run(256_000) // 20 x ~830B x 8 / 256k ~= 520ms
	if throttled < unthrottled+200*time.Millisecond {
		t.Fatalf("throttling had no effect: %v vs %v", throttled, unthrottled)
	}
}

type burstSender struct {
	to wire.NodeID
	n  int
}

func (s *burstSender) Start(rt env.Runtime) {
	ids := make([]wire.PacketID, 100) // ~807B message
	for i := 0; i < s.n; i++ {
		rt.Send(s.to, &wire.Propose{IDs: ids})
	}
}
func (s *burstSender) Receive(wire.NodeID, wire.Message) {}
func (s *burstSender) Stop()                             {}
