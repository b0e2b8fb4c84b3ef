package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

const (
	udpIDsPerPropose = 8
	// udpLagEvery samples send-call→dispatch lag on every 16th datagram:
	// enough samples for a p99 without a clock read per datagram.
	udpLagEvery = 16
)

// udpWorkload saturates the UDP runtime's batch path: one client pushes
// small proposes from node 0 to node 1 on loopback in a closed loop with a
// bounded number in flight. No rate cap, no protocol stack — wire, the
// unpaced sender and the syscall batch are all that runs.
type udpWorkload struct {
	seed         int64
	datagrams    int // per repetition
	inFlight     int
	disableBatch bool

	src, dst *udpnet.Node
	tx       *udpSender
	rx       *udpReceiver
}

// udpSender is node 0's handler: it only captures the runtime, through which
// the load generator sends inside Node.Execute as handler callbacks do.
type udpSender struct {
	rt     env.Runtime
	msg    *wire.Propose
	sendFn func()
}

func (s *udpSender) Start(rt env.Runtime)              { s.rt = rt }
func (s *udpSender) Receive(wire.NodeID, wire.Message) {}
func (s *udpSender) Stop()                             {}

// udpReceiver is node 1's handler. It runs on the read loop under the node
// mutex, so its plain fields have one writer; the load generator reads them
// only after observing the final value of n.
type udpReceiver struct {
	tail   [udpIDsPerPropose - 1]wire.PacketID // seed-derived ids every datagram must carry
	sentAt []atomic.Int64                      // send-call time of every udpLagEvery-th datagram, ns since epoch
	epoch  time.Time

	n     atomic.Int64
	seen  []uint64 // bitmap over the repetition's sequence numbers
	lagNs []int64  // per sampled datagram
	bad   int      // wrong content, out of range, or duplicate
}

func (r *udpReceiver) Start(env.Runtime) {}
func (r *udpReceiver) Stop()             {}

func (r *udpReceiver) Receive(_ wire.NodeID, m wire.Message) {
	p, ok := m.(*wire.Propose)
	if !ok || p.Stream != 1 || len(p.IDs) != udpIDsPerPropose {
		r.bad++
		return
	}
	seq := int(p.IDs[0])
	if seq < 0 || seq/udpLagEvery >= len(r.lagNs) || r.seen[seq/64]&(1<<(seq%64)) != 0 {
		r.bad++
		return
	}
	for i, id := range p.IDs[1:] {
		if id != r.tail[i] {
			r.bad++
			return
		}
	}
	r.seen[seq/64] |= 1 << (seq % 64)
	if seq%udpLagEvery == 0 {
		r.lagNs[seq/udpLagEvery] = time.Since(r.epoch).Nanoseconds() - r.sentAt[seq/udpLagEvery].Load()
	}
	r.n.Add(1)
}

func (r *udpReceiver) reset() {
	r.n.Store(0)
	r.bad = 0
	clear(r.seen)
	clear(r.lagNs)
}

func (w *udpWorkload) open() error {
	samples := (w.datagrams + udpLagEvery - 1) / udpLagEvery
	w.rx = &udpReceiver{
		sentAt: make([]atomic.Int64, samples),
		epoch:  time.Now(),
		seen:   make([]uint64, (w.datagrams+63)/64),
		lagNs:  make([]int64, samples),
	}
	ids := make([]wire.PacketID, udpIDsPerPropose)
	state := uint64(w.seed)
	for i := range w.rx.tail {
		state = state*6364136223846793005 + 1442695040888963407
		w.rx.tail[i] = wire.PacketID(state >> 1)
		ids[i+1] = w.rx.tail[i]
	}
	w.tx = &udpSender{msg: &wire.Propose{Stream: 1, IDs: ids}}
	w.tx.sendFn = func() { w.tx.rt.Send(1, w.tx.msg) }

	var err error
	// The default queue (1024) holds the whole in-flight window, so the
	// paced sender never tail-drops what the closed loop admits.
	if w.dst, err = udpnet.NewNode(1, w.rx, udpnet.Config{Seed: w.seed*2 + 1, DisableBatch: w.disableBatch}); err != nil {
		return err
	}
	if w.src, err = udpnet.NewNode(0, w.tx, udpnet.Config{Seed: w.seed * 2, DisableBatch: w.disableBatch}); err != nil {
		return err
	}
	peers := map[wire.NodeID]*net.UDPAddr{0: w.src.Addr(), 1: w.dst.Addr()}
	w.src.SetPeers(peers)
	w.dst.SetPeers(peers)
	if err := w.dst.Start(); err != nil {
		return err
	}
	return w.src.Start()
}

func (w *udpWorkload) run() (rep, error) {
	var r rep
	w.rx.reset()
	bytes0 := w.src.SentBytes()
	runtime.GC()
	m := startMeter()
	sent, err := w.pump()
	m.stop(&r)
	if err != nil {
		return r, err
	}
	got := w.rx.n.Load()
	r.deliveries, r.expected = got, int64(sent)
	r.attempted, r.failed = int64(sent), int64(sent)-got
	r.wireBytes = w.src.SentBytes() - bytes0
	lags := make([]float64, 0, len(w.rx.lagNs))
	for _, ns := range w.rx.lagNs {
		lags = append(lags, float64(ns)/1e6)
	}
	r.setLags(lags)
	if w.rx.bad != 0 {
		return r, fmt.Errorf("udp: %d datagrams arrived duplicated or with wrong content", w.rx.bad)
	}
	if r.failed != 0 {
		return r, fmt.Errorf("udp: %d of %d datagrams lost", r.failed, sent)
	}
	return r, nil
}

// pump is the single closed-loop client: it keeps at most inFlight datagrams
// between the send call and the receiving handler (never more than the
// sender's queue can hold), and returns once all have been dispatched or
// arrivals stop, which the caller reports as loss.
func (w *udpWorkload) pump() (int, error) {
	// waitFor sleeps until the receiver has dispatched target datagrams; it
	// gives up, returning what arrived, once arrivals stall for a second.
	waitFor := func(target int64) int64 {
		last, lastChange := w.rx.n.Load(), time.Now()
		for last < target && time.Since(lastChange) < time.Second {
			time.Sleep(20 * time.Microsecond)
			if cur := w.rx.n.Load(); cur != last {
				last, lastChange = cur, time.Now()
			}
		}
		return last
	}
	dispatched := int64(0) // as last read; the true count is never smaller
	for i := 0; i < w.datagrams; i++ {
		if int64(i)-dispatched >= int64(w.inFlight) {
			if dispatched = waitFor(int64(i - w.inFlight + 1)); int64(i)-dispatched >= int64(w.inFlight) {
				return i, nil
			}
		}
		w.tx.msg.IDs[0] = wire.PacketID(i)
		if i%udpLagEvery == 0 {
			w.rx.sentAt[i/udpLagEvery].Store(time.Since(w.rx.epoch).Nanoseconds())
		}
		if !w.src.Execute(w.tx.sendFn) {
			return i, fmt.Errorf("udp: sender node closed")
		}
	}
	waitFor(int64(w.datagrams))
	return w.datagrams, nil
}

func (w *udpWorkload) close() error {
	decodeErrors := 0
	for _, n := range []*udpnet.Node{w.src, w.dst} {
		if n != nil { // open may have failed half-way
			n.Close()
			decodeErrors += n.DecodeErrorCount()
		}
	}
	if decodeErrors != 0 {
		return fmt.Errorf("udp: %d decode errors", decodeErrors)
	}
	if w.src != nil && w.src.SendDropped() != 0 {
		return fmt.Errorf("udp: sender tail-dropped %d datagrams inside the in-flight window", w.src.SendDropped())
	}
	return nil
}

func (w *udpWorkload) shape() layerShape {
	// No protocol layer runs here; the drivers use the paper's shape so their
	// numbers line up with sim-paper's.
	return layerShape{nodes: 270, fanout: 7}
}

// variant reruns the repetition on a fresh pair of nodes with the portable
// one-syscall-per-datagram path.
func (w *udpWorkload) variant() (string, rep, error) {
	single := &udpWorkload{seed: w.seed, datagrams: w.datagrams, inFlight: w.inFlight, disableBatch: true}
	if err := single.open(); err != nil {
		return "", rep{}, err
	}
	r, err := single.run()
	if cerr := single.close(); err == nil {
		err = cerr
	}
	return "udpnet.single_wall_ratio", r, err
}

func (w *udpWorkload) counters(r rep) (map[string]float64, msgMix) {
	return map[string]float64{
		"udpnet.pps":             float64(r.deliveries) / r.wall.Seconds(),
		"udpnet.decode_errors":   float64(w.src.DecodeErrorCount() + w.dst.DecodeErrorCount()),
		"ratelimit.tail_dropped": float64(w.src.SendDropped()),
	}, msgMix{proposes: 1, idsPerPropose: udpIDsPerPropose, stream: 1}
}
