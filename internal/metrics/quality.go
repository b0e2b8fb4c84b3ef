package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// Quality is a run's stream-quality read-out (§3.2-3.5) over the nodes that
// count: every record that is neither Excluded (the stream's broadcaster)
// nor Crashed, in record order. Each node's window decode lags and its lag
// to 99% delivery are computed once, by (*Run).Quality; every per-node
// sample below is read from them, in node order.
type Quality struct {
	run   *Run
	nodes []nodeQuality
}

type nodeQuality struct {
	rec    *NodeRecord
	decode []time.Duration // WindowDecodeLags, in window order
	lag99  time.Duration   // LagForDeliveryRatio(rec, 0.99)
}

// Quality computes the run's read-out.
func (r *Run) Quality() *Quality {
	q := &Quality{run: r}
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.Excluded || n.Crashed {
			continue
		}
		q.nodes = append(q.nodes, nodeQuality{
			rec:    n,
			decode: r.WindowDecodeLags(n),
			lag99:  r.LagForDeliveryRatio(n, 0.99),
		})
	}
	return q
}

// Len returns how many nodes the read-out counts.
func (q *Quality) Len() int { return len(q.nodes) }

// Filter returns the read-out restricted to the nodes keep accepts.
func (q *Quality) Filter(keep func(n *NodeRecord) bool) *Quality {
	out := &Quality{run: q.run}
	for _, nq := range q.nodes {
		if keep(nq.rec) {
			out.nodes = append(out.nodes, nq)
		}
	}
	return out
}

// Class returns the read-out restricted to one class label.
func (q *Quality) Class(label string) *Quality {
	return q.Filter(func(n *NodeRecord) bool { return n.Class == label })
}

// Classes returns the distinct class labels of the counted nodes, ordered by
// ascending capability.
func (q *Quality) Classes() []string {
	seen := map[string]uint32{}
	for _, nq := range q.nodes {
		seen[nq.rec.Class] = nq.rec.CapKbps
	}
	out := make([]string, 0, len(seen))
	for label := range seen {
		out = append(out, label)
	}
	sort.Slice(out, func(i, j int) bool {
		if ci, cj := seen[out[i]], seen[out[j]]; ci != cj {
			return ci < cj
		}
		return out[i] < out[j]
	})
	return out
}

// LagCDF returns the CDF over nodes of the lag, in seconds, to receive 99%
// of the source packets (Figures 1-3); a node that never does counts as
// +Inf.
func (q *Quality) LagCDF() CDF { return NewCDF(q.Lags()) }

// Lags returns each node's lag, in seconds, to receive 99% of the source
// packets (+Inf: never).
func (q *Quality) Lags() []float64 {
	out := make([]float64, len(q.nodes))
	for i, nq := range q.nodes {
		out[i] = Seconds(nq.lag99)
	}
	return out
}

// MinStartups returns each node's minimum startup delay, in seconds, for
// smooth playback (Run.MinStartupForSmoothPlayback; +Inf: never).
func (q *Quality) MinStartups() []float64 {
	out := make([]float64, len(q.nodes))
	for i, nq := range q.nodes {
		out[i] = Seconds(q.run.MinStartupForSmoothPlayback(nq.rec))
	}
	return out
}

// JitterFree returns each node's share of windows viewable at the given
// playback lag (Never: offline viewing).
func (q *Quality) JitterFree(lag time.Duration) []float64 {
	out := make([]float64, len(q.nodes))
	for i, nq := range q.nodes {
		out[i] = jitterFreeShare(nq.decode, lag)
	}
	return out
}

// MinLags returns each node's minimum playback lag, in seconds, at which at
// most maxJitter of its windows are jittered (+Inf: never).
func (q *Quality) MinLags(maxJitter float64) []float64 {
	out := make([]float64, len(q.nodes))
	for i, nq := range q.nodes {
		out[i] = Seconds(minLagForJitterFree(nq.decode, maxJitter))
	}
	return out
}

// JitteredDeliveryRatio returns the mean, over the nodes with at least one
// window jittered at the given lag, of their delivery ratio inside those
// windows (Table 2), and how many nodes that is.
func (q *Quality) JitteredDeliveryRatio(lag time.Duration) (mean float64, nodes int) {
	var sum float64
	for _, nq := range q.nodes {
		if ratio, any := q.run.jitteredDeliveryRatio(nq.rec, nq.decode, lag); any {
			sum += ratio
			nodes++
		}
	}
	if nodes == 0 {
		return 0, 0
	}
	return sum / float64(nodes), nodes
}

// DeliveredWithin returns each node's fraction of source packets received
// with lag <= horizon.
func (q *Quality) DeliveredWithin(horizon time.Duration) []float64 {
	g := q.run.Geometry
	out := make([]float64, len(q.nodes))
	for i, nq := range q.nodes {
		total, got := 0, 0
		for id := range nq.rec.Recv {
			if g.IsParity(wire.PacketID(id)) {
				continue
			}
			total++
			if lag := q.run.Lag(nq.rec, id); lag != Never && lag <= horizon {
				got++
			}
		}
		if total > 0 {
			out[i] = float64(got) / float64(total)
		}
	}
	return out
}

// Received returns each node's fraction of the stream's packets, parity
// included, that ever arrived.
func (q *Quality) Received() []float64 {
	total := float64(q.run.Geometry.TotalPackets(q.run.Windows))
	out := make([]float64, len(q.nodes))
	for i, nq := range q.nodes {
		got := 0
		for _, at := range nq.rec.Recv {
			if at != stream.NotReceived {
				got++
			}
		}
		out[i] = float64(got) / total
	}
	return out
}

// FormatLag renders a lag in seconds with one decimal, or "never" for +Inf
// (Seconds(Never)): a percentile that lands on a node that never got there.
func FormatLag(sec float64) string {
	if math.IsInf(sec, 1) {
		return "never"
	}
	return fmt.Sprintf("%.1f", sec)
}

// Spread renders a lag CDF's P50 and P90 as "P50 / P90" (see FormatLag), the
// way the tables quote the lag to 99% delivery.
func (c CDF) Spread() string {
	return FormatLag(c.ValueAtPercentile(50)) + " / " + FormatLag(c.ValueAtPercentile(90))
}

// NeverFrac returns the fraction of samples that are +Inf: the nodes that
// never reached the measured quantity. An empty CDF returns 1.
func (c CDF) NeverFrac() float64 {
	return 1 - c.FractionAtOrBelow(math.MaxFloat64)
}
