package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	heapgossip "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// liveWorkload is a whole streaming session on real loopback sockets: one
// well-provisioned non-adapting source, a few rich peers and a constrained
// majority, all HEAP nodes of one process. The nodes are the system under
// test; the only load generator is the source's own stream clock (open
// loop), so the wall clock of a session is fixed and cost shows up as CPU,
// lag and undelivered packets.
type liveWorkload struct {
	seed       int64
	nodes      int
	windows    int
	geom       heapgossip.Geometry
	startDelay time.Duration // aggregation warm-up before the first packet
	drain      time.Duration

	fleet      []*heapgossip.Node
	epoch      time.Time
	recvAt     [][]int64    // [node][packet] delivery time, ns since epoch; 0 = never
	dups       atomic.Int64 // (node, packet) pairs delivered more than once
	badPayload atomic.Int64 // deliveries whose payload does not carry their id
	bytes0     int64        // wire bytes and datagrams spent before the timed section
	datagrams0 float64
	backlogMax time.Duration // over all polls of all nodes
	last       liveCounters  // for the traced pass
}

type liveCounters struct {
	core        core.Stats
	datagrams   float64
	bytes       float64
	tailDropped float64
	publishLate float64 // p99, ms
}

func (w *liveWorkload) capKbps(i int) uint32 {
	switch {
	case i == 0:
		return 10_000
	case i <= 4:
		return 2000
	default:
		return 768
	}
}

// open boots the fleet and returns just before the source's first packet,
// so the aggregation warm-up counts as set-up and every publish is timed.
func (w *liveWorkload) open() error {
	total := w.geom.TotalPackets(w.windows)
	w.recvAt = make([][]int64, w.nodes)
	w.dups.Store(0)
	w.badPayload.Store(0)
	w.backlogMax = 0
	w.epoch = time.Now()
	w.fleet = make([]*heapgossip.Node, 0, w.nodes)
	for i := 0; i < w.nodes; i++ {
		row := make([]int64, total)
		w.recvAt[i] = row
		cfg := heapgossip.NodeConfig{
			ID:           heapgossip.NodeID(i),
			UploadKbps:   w.capKbps(i),
			Adaptive:     i != 0, // as scenario.Run's source: an adapting 10 Mbps source triples its own fanout
			Fanout:       4.6,    // ln(24) + 1.4
			GossipPeriod: 200 * time.Millisecond,
			Seed:         w.seed*1000 + int64(i) + 1,
			Epoch:        w.epoch,
			// Runs under the node's mutex: this row has one writer at a time and
			// is read only after Close.
			OnDeliver: func(_ heapgossip.StreamID, id heapgossip.PacketID, payload []byte, _ time.Duration) {
				if int(id) >= len(row) {
					w.badPayload.Add(1)
					return
				}
				if row[id] != 0 {
					w.dups.Add(1)
					return
				}
				row[id] = time.Since(w.epoch).Nanoseconds()
				if len(payload) != w.geom.PacketBytes ||
					(!w.geom.IsParity(id) && binary.BigEndian.Uint64(payload) != uint64(id)) {
					w.badPayload.Add(1)
				}
			},
		}
		if i == 0 {
			cfg.Source = &heapgossip.SourceConfig{Geometry: w.geom, Windows: w.windows, StartDelay: w.startDelay}
		}
		n, err := heapgossip.StartNode(cfg)
		if err != nil {
			w.stopFleet()
			return err
		}
		w.fleet = append(w.fleet, n)
	}
	sourceUp := time.Now() // node 0 started a moment before this
	for i, n := range w.fleet {
		for j, m := range w.fleet {
			if i != j {
				n.AddPeer(heapgossip.NodeID(j), m.Addr())
			}
		}
	}
	time.Sleep(time.Until(sourceUp.Add(w.startDelay - 100*time.Millisecond)))
	w.bytes0, w.datagrams0 = 0, 0
	for _, n := range w.fleet {
		t := telemetryOf(n)
		w.bytes0 += int64(t["udp_sent_bytes_total"])
		w.datagrams0 += t["udp_send_datagrams_total"]
	}
	return nil
}

// telemetryOf reads a node's registry once; it stays truthful after Close.
func telemetryOf(n *heapgossip.Node) map[string]float64 {
	out := map[string]float64{}
	for _, s := range n.Telemetry().Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

func (w *liveWorkload) stopFleet() {
	for _, n := range w.fleet {
		n.Close()
	}
}

// run measures one session from just before the first publish to the end of
// the drain, then closes the fleet and checks its books.
func (w *liveWorkload) run() (rep, error) {
	var r rep
	if w.fleet == nil {
		if err := w.open(); err != nil {
			return r, err
		}
	}
	runtime.GC()
	m := startMeter()
	deadline := time.Now().Add(w.startDelay + w.geom.PublishOffset(wire.PacketID(w.geom.TotalPackets(w.windows)-1)) + 5*time.Second)
	for !w.fleet[0].SourceDone() {
		if time.Now().After(deadline) {
			w.stopFleet()
			return r, fmt.Errorf("live: source did not finish publishing")
		}
		w.pollBacklog()
		time.Sleep(50 * time.Millisecond)
	}
	for end := time.Now().Add(w.drain); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		w.pollBacklog()
	}
	m.stop(&r)

	var c liveCounters
	for _, n := range w.fleet {
		addCoreStats(&c.core, n.Stats())
	}
	w.stopFleet()
	for i, n := range w.fleet {
		t := telemetryOf(n)
		accepted, sent, discarded := t["udp_accepted_bytes_total"], t["udp_sent_bytes_total"], t["udp_discarded_bytes_total"]
		if accepted != sent+discarded {
			return r, fmt.Errorf("live: node %d accepted %.0f B != sent %.0f + discarded %.0f", i, accepted, sent, discarded)
		}
		if q := t["udp_queued_bytes"]; q != 0 {
			return r, fmt.Errorf("live: node %d has %.0f B queued after Close", i, q)
		}
		if d := t["udp_decode_errors_total"]; d != 0 {
			return r, fmt.Errorf("live: node %d had %.0f decode errors", i, d)
		}
		c.bytes += sent
		c.datagrams += t["udp_send_datagrams_total"]
		c.tailDropped += float64(n.SendQueueDropped())
	}
	w.fleet = nil
	c.bytes -= float64(w.bytes0)
	c.datagrams -= w.datagrams0
	if n := w.dups.Load(); n != 0 {
		return r, fmt.Errorf("live: %d (node, packet) pairs delivered twice", n)
	}
	if n := w.badPayload.Load(); n != 0 {
		return r, fmt.Errorf("live: %d deliveries with a wrong payload", n)
	}

	// Lag runs from a packet's publish to its delivery. How far the source's
	// ticker fell behind the stream clock is not lag of the dissemination; it
	// is reported beside it (stream.publish_late_ms_p99).
	pub := w.recvAt[0]
	if pub[0] == 0 {
		return r, fmt.Errorf("live: the source never published")
	}
	total := len(pub)
	lags := make([]float64, 0, (w.nodes-1)*total)
	late := make([]float64, 0, total)
	for id, at := range pub {
		if at == 0 {
			return r, fmt.Errorf("live: the source skipped packet %d", id)
		}
		late = append(late, float64(at-pub[0]-int64(w.geom.PublishOffset(wire.PacketID(id))))/1e6)
	}
	for i := 1; i < w.nodes; i++ {
		for id, at := range w.recvAt[i] {
			if at != 0 {
				lags = append(lags, float64(max(at-pub[id], 0))/1e6)
			}
		}
	}
	r.deliveries = int64(len(lags))
	r.expected = int64((w.nodes - 1) * total)
	r.wireBytes = int64(c.bytes)
	r.setLags(lags)
	r.judgeSession()
	sort.Float64s(late)
	c.publishLate = percentile(late, 99)
	w.last = c
	return r, nil
}

// pollBacklog keeps the largest paced-sender backlog seen: 24 atomic loads
// twenty times a second, which the end-to-end pass can afford as well.
func (w *liveWorkload) pollBacklog() {
	for _, n := range w.fleet {
		w.backlogMax = max(w.backlogMax, n.SendQueueBacklog())
	}
}

func (w *liveWorkload) close() error {
	w.stopFleet()
	w.fleet = nil
	return nil
}

func (w *liveWorkload) shape() layerShape {
	return layerShape{nodes: w.nodes, fanout: 4.6}
}

// variant: the public node API has no switch to rerun a session differently.
func (w *liveWorkload) variant() (string, rep, error) { return "", rep{}, nil }

func (w *liveWorkload) counters(r rep) (map[string]float64, msgMix) {
	c := w.last
	d := float64(r.deliveries)
	out := map[string]float64{
		"udpnet.pps":                 c.datagrams / r.wall.Seconds(),
		"udpnet.decode_errors":       0, // a non-zero count fails the run
		"ratelimit.tail_dropped":     c.tailDropped,
		"ratelimit.backlog_ms_max":   float64(w.backlogMax) / 1e6,
		"stream.publish_late_ms_p99": c.publishLate,
	}
	coreCounters(out, c.core, d)
	mix := coreMix(c.core, 0)
	// Engines and estimators are the only senders on a live node, so what the
	// engines did not send is aggregation gossip.
	mix.aggregates = c.datagrams - float64(c.core.ProposesSent+c.core.RequestsSent+c.core.ServesSent)
	out["aggregation.msgs_per_delivery"] = mix.aggregates / d
	out["aggregation.bytes_share_pct"] = 100 * mix.aggregates * float64(liveDatagramBytes(fullAggregate)) / c.bytes
	return out, mix
}
