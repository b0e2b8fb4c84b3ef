// Package metrics computes every evaluation metric of the paper from raw
// delivery records: stream lag (§3.2), stream quality / jitter-free window
// percentages (§3.4), minimum lag for a jitter-free stream (§3.5),
// per-window decode coverage under churn (§3.6), per-class bandwidth usage
// (§3.3), and the CDFs the figures plot.
//
// Definitions used throughout (matching §3.2):
//
//   - The lag of a packet at a node is receiveTime − publishTime.
//   - A window is viewable at lag L when at least DataPerWindow of its
//     PacketsPerWindow packets arrived with lag ≤ L (systematic FEC: any 101
//     of 110 reconstruct the window). The window's decode lag is therefore
//     the DataPerWindow-th smallest packet lag within it.
//   - A window is jittered at lag L when its decode lag exceeds L.
//   - A node's stream is jitter-free at lag L when no window is jittered.
//
// The per-node methods of Run answer one question about one node. Across
// nodes, every figure, table and summary reads a Quality (Run.Quality),
// which decides which nodes count and computes each node's window decode
// lags once; FormatLag, CDF.Spread and CDF.NeverFrac decide how a lag that
// never came is counted and rendered.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// Never marks "not received" / "never decodable" lags.
const Never = time.Duration(math.MaxInt64)

// NodeRecord is one node's raw measurement data.
type NodeRecord struct {
	Node    wire.NodeID
	Class   string // capability class label, e.g. "512kbps"
	CapKbps uint32
	// Recv holds per-packet arrival times (absolute run time), indexed by
	// packet id; stream.NotReceived marks gaps.
	Recv []time.Duration
	// Excluded nodes (e.g. the source) are skipped by across-node
	// aggregations but kept for completeness.
	Excluded bool
	// Crashed nodes are included in per-window coverage denominators
	// (Fig 10 plots coverage against all original nodes) but skipped in
	// stream-quality aggregates.
	Crashed bool
}

// Run is the complete measurement record of one experiment.
type Run struct {
	Geometry stream.Geometry
	Windows  int
	// PublishAt holds per-packet publish times (absolute run time).
	PublishAt []time.Duration
	Nodes     []NodeRecord
}

// Validate checks structural consistency.
func (r *Run) Validate() error {
	total := r.Geometry.TotalPackets(r.Windows)
	if len(r.PublishAt) != total {
		return fmt.Errorf("metrics: %d publish times for %d packets", len(r.PublishAt), total)
	}
	for i := range r.Nodes {
		if len(r.Nodes[i].Recv) != total {
			return fmt.Errorf("metrics: node %d has %d records for %d packets",
				r.Nodes[i].Node, len(r.Nodes[i].Recv), total)
		}
	}
	return nil
}

// Lag returns packet id's lag at the given node record, or Never.
func (r *Run) Lag(n *NodeRecord, id int) time.Duration {
	at := n.Recv[id]
	if at == stream.NotReceived {
		return Never
	}
	lag := at - r.PublishAt[id]
	if lag < 0 {
		lag = 0
	}
	return lag
}

// LagForDeliveryRatio returns the minimum lag at which the node has received
// at least ratio (e.g. 0.99) of all *source* packets: the quantity plotted
// in Figures 1-3. Returns Never when the node never reaches the ratio.
func (r *Run) LagForDeliveryRatio(n *NodeRecord, ratio float64) time.Duration {
	g := r.Geometry
	lags := make([]time.Duration, 0, r.Windows*g.DataPerWindow)
	totalSource := r.Windows * g.DataPerWindow
	for id := range n.Recv {
		if g.IsParity(wire.PacketID(id)) {
			continue
		}
		if lag := r.Lag(n, id); lag != Never {
			lags = append(lags, lag)
		}
	}
	need := int(math.Ceil(ratio * float64(totalSource)))
	if need <= 0 {
		return 0
	}
	if len(lags) < need {
		return Never
	}
	slices.Sort(lags)
	return lags[need-1]
}

// WindowDecodeLags returns, for every window, the minimum lag at which the
// node can fully decode it (Never when it never can): the DataPerWindow-th
// smallest packet lag within the window.
func (r *Run) WindowDecodeLags(n *NodeRecord) []time.Duration {
	return r.perWindowKth(func(id int) time.Duration { return r.Lag(n, id) })
}

// perWindowKth returns, for every window, the DataPerWindow-th smallest
// value among its packets (value returns Never for a packet that never
// arrived), or Never when fewer arrived: for packet lags the window's decode
// lag, for arrival times the instant it becomes decodable.
func (r *Run) perWindowKth(value func(id int) time.Duration) []time.Duration {
	g := r.Geometry
	ppw := g.PacketsPerWindow()
	out := make([]time.Duration, r.Windows)
	vals := make([]time.Duration, 0, ppw)
	for w := range out {
		vals = vals[:0]
		for id := w * ppw; id < (w+1)*ppw; id++ {
			if v := value(id); v != Never {
				vals = append(vals, v)
			}
		}
		if len(vals) < g.DataPerWindow {
			out[w] = Never
			continue
		}
		slices.Sort(vals)
		out[w] = vals[g.DataPerWindow-1]
	}
	return out
}

// decodableAt reports whether a window with decode lag d is viewable at
// playback lag L. Offline viewing is expressed as L = Never: a window is
// then viewable iff it is ever decodable.
func decodableAt(d, lag time.Duration) bool {
	if d == Never {
		return false
	}
	return d <= lag
}

// JitterFreeShare returns the fraction of the node's windows that are
// viewable at the given playback lag (Figures 5-6 plot its mean per class;
// Figure 7 plots the CDF of 1 minus it).
func (r *Run) JitterFreeShare(n *NodeRecord, lag time.Duration) float64 {
	return jitterFreeShare(r.WindowDecodeLags(n), lag)
}

func jitterFreeShare(decodeLags []time.Duration, lag time.Duration) float64 {
	ok := 0
	for _, d := range decodeLags {
		if decodableAt(d, lag) {
			ok++
		}
	}
	return float64(ok) / float64(len(decodeLags))
}

// MinLagForJitterFree returns the smallest playback lag at which at most
// maxJitter (fraction, e.g. 0 or 0.01) of the node's windows are jittered:
// the quantity of Figures 8-9. Returns Never when even offline viewing
// leaves more than maxJitter windows undecodable.
func (r *Run) MinLagForJitterFree(n *NodeRecord, maxJitter float64) time.Duration {
	return minLagForJitterFree(r.WindowDecodeLags(n), maxJitter)
}

func minLagForJitterFree(decodeLags []time.Duration, maxJitter float64) time.Duration {
	sorted := slices.Clone(decodeLags)
	slices.Sort(sorted)
	// We may leave up to floor(maxJitter·W) windows jittered; the required
	// lag is the largest decode lag among the windows we must cover.
	allowed := int(math.Floor(maxJitter * float64(len(sorted))))
	idx := len(sorted) - 1 - allowed
	if idx < 0 {
		return 0
	}
	return sorted[idx]
}

// DeliveryRatioInJitteredWindows returns the node's average delivery ratio
// (source packets arrived by their playback deadline / DataPerWindow) over
// the windows that are jittered at the given lag — Table 2. The boolean
// reports whether the node had any jittered window.
func (r *Run) DeliveryRatioInJitteredWindows(n *NodeRecord, lag time.Duration) (float64, bool) {
	return r.jitteredDeliveryRatio(n, r.WindowDecodeLags(n), lag)
}

func (r *Run) jitteredDeliveryRatio(n *NodeRecord, decodeLags []time.Duration, lag time.Duration) (float64, bool) {
	g := r.Geometry
	ppw := g.PacketsPerWindow()
	var sum float64
	var count int
	for w, d := range decodeLags {
		if decodableAt(d, lag) {
			continue
		}
		got := 0
		base := w * ppw
		for i := 0; i < g.DataPerWindow; i++ {
			if l := r.Lag(n, base+i); l != Never && l <= lag {
				got++
			}
		}
		sum += float64(got) / float64(g.DataPerWindow)
		count++
	}
	if count == 0 {
		return 0, false
	}
	return sum / float64(count), true
}

// PerWindowCoverage returns, for each window, the fraction of nodes
// (counting crashed nodes, excluding Excluded ones) that can decode it at
// the given playback lag — Figure 10.
func (r *Run) PerWindowCoverage(lag time.Duration) []float64 {
	out := make([]float64, r.Windows)
	nodes := 0
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.Excluded {
			continue
		}
		nodes++
		for w, d := range r.WindowDecodeLags(n) {
			if decodableAt(d, lag) {
				out[w]++
			}
		}
	}
	if nodes == 0 {
		return out
	}
	for w := range out {
		out[w] /= float64(nodes)
	}
	return out
}

// Seconds converts a lag to float seconds, mapping Never to +Inf.
func Seconds(d time.Duration) float64 {
	if d == Never {
		return math.Inf(1)
	}
	return d.Seconds()
}
