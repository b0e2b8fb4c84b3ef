package scenario

// Dissemination-path analysis of a traced run (Config.Trace): the per-node
// tracers' hop records are merged in virtual-time order and hop counts are
// resolved by an offline join — a node's delivery is hop h+1 where h is the
// hop of the peer that served it, anchored at the source's publish (hop 0).
// Nothing rides on the wire: the id-modulo sampling rule is identical on
// every node, so for every sampled packet the join sees the complete path
// (ring truncation and quarantine-ignored proposals are the only holes,
// counted as UnresolvedHops).

import (
	"io"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TraceStats carries a traced run's dissemination-path records and their
// offline hop analysis (Result.TraceStats).
type TraceStats struct {
	// Hops are the merged per-node records, ordered by (At, Node, Stream,
	// ID) — deterministic under the virtual clock, exportable via
	// WriteJSONL.
	Hops []telemetry.HopRecord
	// Truncated counts records lost to per-node ring wrap (size RingCap up).
	Truncated int
	// Publishes counts source-publish records (hop 0).
	Publishes int
	// Deliveries counts serve-path delivery records.
	Deliveries int
	// UnresolvedHops counts deliveries whose serving peer's own hop is
	// unknown (its record truncated or its request path untraced).
	UnresolvedHops int
	// HopCounts is the hop-count histogram over resolved deliveries:
	// HopCounts[h] deliveries happened at hop h (index 0 counts publishes).
	HopCounts []int64
	// HopCDF is the empirical distribution of resolved delivery hop counts.
	HopCDF metrics.CDF
	// HopLatencyCDF is the per-hop latency distribution in seconds: first
	// request to delivery, over deliveries with a recorded request time —
	// the propose→request→serve leg the paper's gossip rounds pace.
	HopLatencyCDF metrics.CDF
}

// WriteJSONL exports the merged hop records as JSON lines (one object per
// record, byte-deterministic for a fixed run).
func (ts *TraceStats) WriteJSONL(w io.Writer) error {
	return telemetry.WriteJSONL(w, ts.Hops)
}

// MeanHops returns the mean resolved delivery hop count (0 when nothing
// resolved).
func (ts *TraceStats) MeanHops() float64 {
	var n, sum int64
	for h, c := range ts.HopCounts {
		if h == 0 {
			continue // publishes are not deliveries
		}
		n += c
		sum += int64(h) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

type hopKey struct {
	stream wire.StreamID
	id     wire.PacketID
	node   wire.NodeID
}

// collectTraceStats merges the per-node tracer rings and resolves hop
// counts. Records are processed in (At, Node) order; under the virtual
// clock a server's own delivery always precedes the deliveries it serves,
// so a single forward pass resolves every complete path.
func collectTraceStats(nodes []*stack.Node) *TraceStats {
	ts := &TraceStats{}
	for _, n := range nodes {
		if tr := n.Tracer; tr != nil {
			ts.Hops = append(ts.Hops, tr.Records()...)
			ts.Truncated += tr.Truncated()
		}
	}
	sort.Slice(ts.Hops, func(i, j int) bool {
		a, b := ts.Hops[i], ts.Hops[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.ID < b.ID
	})

	hop := make(map[hopKey]int)
	var hopSamples, latSamples []float64
	addHop := func(h int) {
		for len(ts.HopCounts) <= h {
			ts.HopCounts = append(ts.HopCounts, 0)
		}
		ts.HopCounts[h]++
	}
	for _, r := range ts.Hops {
		k := hopKey{r.Stream, r.ID, r.Node}
		if r.Publish {
			ts.Publishes++
			hop[k] = 0
			addHop(0)
			continue
		}
		ts.Deliveries++
		if r.ReqAt >= 0 {
			latSamples = append(latSamples, (r.At - r.ReqAt).Seconds())
		}
		h, ok := hop[hopKey{r.Stream, r.ID, r.From}]
		if !ok {
			ts.UnresolvedHops++
			continue
		}
		hop[k] = h + 1
		addHop(h + 1)
		hopSamples = append(hopSamples, float64(h+1))
	}
	ts.HopCDF = metrics.NewCDF(hopSamples)
	ts.HopLatencyCDF = metrics.NewCDF(latSamples)
	return ts
}
