package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/wire"
)

// simWorkload runs one scenario cell on the simulator per repetition. The
// simulator is deterministic, so every repetition must reproduce the first
// one's counters and lag percentiles exactly; only host time varies.
type simWorkload struct {
	cfg scenario.Config

	first *simFingerprint  // determinism reference
	last  *scenario.Result // layer counters for the traced pass
}

// simFingerprint is what must repeat exactly between repetitions.
type simFingerprint struct {
	events, msgs, bytes, deliveries int64
	lagP50ms, lagP99ms              float64
}

// paperCell is the paper's headline cell at full stream length: HEAP on the
// ms-691 distribution, 270 nodes, 31 windows (~60 s of stream).
func paperCell(seed int64) scenario.Config {
	return scenario.Config{
		Nodes:       270,
		Protocol:    scenario.HEAP,
		Dist:        scenario.MS691,
		Fanout:      7, // the default, spelled out for the layer drivers' shape
		Windows:     31,
		Seed:        seed,
		StreamStart: 5 * time.Second,
		Drain:       30 * time.Second,
		Shards:      1,
	}
}

// largeCell is the BenchmarkLargeScale1k cell: 1000 nodes over Cyclon with a
// short stream, so background gossip outweighs dissemination.
func largeCell(seed int64) scenario.Config {
	cfg := scenario.LargeScaleBase(1000, seed)
	cfg.Windows = 3
	cfg.Drain = 20 * time.Second
	cfg.Shards = 1
	return cfg
}

// open has nothing to prepare: a repetition builds its network from cfg.
func (w *simWorkload) open() error { return nil }

func (w *simWorkload) run() (rep, error) {
	var r rep
	runtime.GC()
	m := startMeter()
	res, err := scenario.Run(w.cfg)
	m.stop(&r)
	if err != nil {
		return r, err
	}
	if err := res.Run.Validate(); err != nil {
		return r, err
	}
	w.last = res

	run := res.Run
	lags := make([]float64, 0, len(run.Nodes)*len(run.PublishAt))
	for i := range run.Nodes {
		n := &run.Nodes[i]
		if n.Excluded {
			continue
		}
		r.expected += int64(len(n.Recv))
		for id, at := range n.Recv {
			if at != stream.NotReceived {
				lags = append(lags, float64(run.Lag(n, id))/float64(time.Millisecond))
			}
		}
	}
	r.deliveries = int64(len(lags))
	r.wireBytes = res.NetStats.BytesSent
	r.setLags(lags)
	r.judgeSession()

	fp := &simFingerprint{
		events: res.NetStats.EventsProcessed, msgs: res.NetStats.MsgsSent,
		bytes: res.NetStats.BytesSent, deliveries: r.deliveries,
		lagP50ms: r.lagP50ms, lagP99ms: r.lagP99ms,
	}
	if w.first == nil {
		w.first = fp
	} else if *fp != *w.first {
		return r, fmt.Errorf("simulation is not deterministic: repetition gave %+v, the first gave %+v", *fp, *w.first)
	}
	return r, nil
}

func (w *simWorkload) close() error { return nil }

func (w *simWorkload) shape() layerShape {
	return layerShape{nodes: w.cfg.Nodes, fanout: w.cfg.Fanout}
}

// variant reruns the repetition on two shards; results must stay identical
// (the determinism check in run enforces it), only the wall clock may move.
func (w *simWorkload) variant() (string, rep, error) {
	one := w.cfg
	w.cfg.Shards = 2
	r, err := w.run()
	w.cfg = one
	return "simnet.shard2_wall_ratio", r, err
}

// counters derives the count-type layer metrics of the last repetition from
// the simulator's and the engines' own counters.
func (w *simWorkload) counters(r rep) (map[string]float64, msgMix) {
	res := w.last
	ns := res.NetStats
	var cs core.Stats
	for _, s := range res.CoreStats {
		addCoreStats(&cs, s)
	}
	var byKind [16]int64
	for _, n := range res.NodeNetStats {
		for k, b := range n.SentByKind {
			byKind[k] += b
		}
	}
	d := float64(r.deliveries)
	out := map[string]float64{
		"simnet.events_per_delivery":  float64(ns.EventsProcessed) / d,
		"simnet.msgs_per_delivery":    float64(ns.MsgsSent) / d,
		"simnet.lost_pct":             pct(ns.MsgsLost, ns.MsgsSent),
		"simnet.taildrop_pct":         pct(ns.MsgsTailDrop, ns.MsgsSent),
		"aggregation.bytes_share_pct": pct(byKind[wire.KindAggregate], ns.BytesSent),
	}
	coreCounters(out, cs, d)

	mix := coreMix(cs, float64(byKind[wire.KindPropose]))
	// Aggregation and shuffle messages are not counted per kind anywhere, only
	// their bytes are; nearly all carry a full payload (FreshestK entries, a
	// full shuffle slice), so bytes over the full-size datagram is the count.
	mix.aggregates = float64(byKind[wire.KindAggregate]) / float64(datagramBytes(fullAggregate))
	mix.shuffles = float64(byKind[wire.KindShuffleReq]+byKind[wire.KindShuffleReply]) / float64(datagramBytes(fullShuffle))
	out["aggregation.msgs_per_delivery"] = mix.aggregates / d
	return out, mix
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
