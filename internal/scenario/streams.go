package scenario

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/wire"
)

// StreamSpec describes one stream of a multi-source run: which node
// broadcasts it, when it starts, and its geometry. A Config with a non-empty
// Streams slice runs K concurrent broadcasters over one shared membership
// view, capability aggregation layer, and per-node upload budget — the
// regime where HEAP's bandwidth accounting gets genuinely hard.
type StreamSpec struct {
	// ID is the wire-level stream id. The zero value is replaced by the
	// spec's index (so default configs get dense ids 0..K-1); explicit ids
	// must be unique. Because 0 is the sentinel, an explicit id 0 is only
	// expressible at index 0 — an "ID: 0" at a later index becomes that
	// index.
	ID wire.StreamID
	// Source is the broadcasting node. The zero value is replaced by the
	// spec's index, giving each stream its own well-provisioned source
	// node (nodes 0..K-1). Explicit non-zero sources may repeat (one node
	// may broadcast several streams); node 0 as an explicit source is only
	// expressible at index 0, the same zero-sentinel rule as ID — to
	// broadcast several streams from one node, pick a non-zero node.
	Source wire.NodeID
	// Start is when the stream's first packet is published. The zero value
	// is Config.StreamStart; stagger starts to model broadcasters joining
	// over time.
	Start time.Duration
	// Windows is the stream length in FEC windows. 0 means Config.Windows.
	Windows int
	// Geometry is the stream's packetization. The zero value is
	// Config.Geometry; an explicitly set geometry with a non-positive rate
	// is rejected (a zero-rate source cannot be budgeted or disseminated).
	Geometry stream.Geometry
}

// end returns when the stream's last packet is published.
func (s *StreamSpec) end() time.Duration {
	last := wire.PacketID(s.Geometry.TotalPackets(s.Windows) - 1)
	return s.Start + s.Geometry.PublishOffset(last)
}

// applyStreamDefaults fills in and validates the multi-source stream specs.
// Called from applyDefaults after the stream-independent fields settle.
func (c *Config) applyStreamDefaults() error {
	if len(c.Streams) == 0 {
		return nil
	}
	if c.Protocol == StaticTree {
		return fmt.Errorf("scenario: the static-tree baseline is single-stream; Streams requires a gossip protocol")
	}
	seenIDs := make(map[wire.StreamID]bool, len(c.Streams))
	for i := range c.Streams {
		s := &c.Streams[i]
		if s.ID == 0 {
			s.ID = wire.StreamID(i)
		}
		if seenIDs[s.ID] {
			return fmt.Errorf("scenario: duplicate stream id %d (stream ids must be unique)", s.ID)
		}
		seenIDs[s.ID] = true
		if s.Source == 0 {
			s.Source = wire.NodeID(i)
		}
		if int(s.Source) < 0 || int(s.Source) >= c.Nodes {
			return fmt.Errorf("scenario: stream %d source node %d outside the initial system [0, %d)",
				s.ID, s.Source, c.Nodes)
		}
		if s.Geometry != (stream.Geometry{}) && s.Geometry.RateBps <= 0 {
			return fmt.Errorf("scenario: stream %d has a zero-rate source (geometry rate %d bps)",
				s.ID, s.Geometry.RateBps)
		}
		if s.Geometry == (stream.Geometry{}) {
			s.Geometry = c.Geometry
		}
		if err := s.Geometry.Validate(); err != nil {
			return fmt.Errorf("scenario: stream %d: %w", s.ID, err)
		}
		if s.Windows == 0 {
			s.Windows = c.Windows
		}
		if s.Windows < 0 {
			return fmt.Errorf("scenario: stream %d windows %d must be positive", s.ID, s.Windows)
		}
		if s.Start == 0 {
			s.Start = c.StreamStart
		}
		if s.Start < 0 {
			return fmt.Errorf("scenario: stream %d start %v must not be negative", s.ID, s.Start)
		}
	}
	return nil
}

// effectiveStreams returns the run's stream specs: the configured multi-
// source specs, or the implicit legacy single stream (stream 0 from node 0).
// Must be called after applyDefaults.
func (c *Config) effectiveStreams() []StreamSpec {
	if len(c.Streams) > 0 {
		return c.Streams
	}
	return []StreamSpec{{
		ID:       0,
		Source:   0,
		Start:    c.StreamStart,
		Windows:  c.Windows,
		Geometry: c.Geometry,
	}}
}

// streamsSpan returns the window during which any stream is on air:
// [earliest start, latest last-packet time].
func (c *Config) streamsSpan() (start, end time.Duration) {
	specs := c.effectiveStreams()
	start, end = specs[0].Start, specs[0].end()
	for _, s := range specs[1:] {
		if s.Start < start {
			start = s.Start
		}
		if e := s.end(); e > end {
			end = e
		}
	}
	return start, end
}

// StreamSummary is one stream's headline statistics in a multi-source run.
type StreamSummary struct {
	// Spec echoes the stream's effective configuration.
	Spec StreamSpec
	// MeasuredNodes counts the node samples (the stream's source and
	// crashed nodes are excluded, as everywhere in internal/metrics).
	MeasuredNodes int
	// LagP50/LagP90 are percentiles over nodes of the minimum lag to
	// receive 99% of the stream (seconds).
	LagP50, LagP90 float64
	// NeverFrac is the fraction of nodes that never reach 99% delivery.
	NeverFrac float64
	// JFMean is the mean jitter-free window share at the given playback lag.
	JFMean float64
	// DeliveryMean is the mean over nodes of the fraction of the stream's
	// packets ever received — the headline number when contention pushes
	// 99%-delivery lags to infinity (overloaded multi-source runs).
	DeliveryMean float64
}

// StreamSummaries computes per-stream headline statistics (the per-stream
// lag CDF percentiles of the multi-source reports) at the given playback
// lag. Single-stream runs return exactly one entry.
func (r *Result) StreamSummaries(lag time.Duration) []StreamSummary {
	specs := r.Config.effectiveStreams()
	out := make([]StreamSummary, 0, len(r.StreamRuns))
	for k, run := range r.StreamRuns {
		q := run.Quality()
		cdf := q.LagCDF()
		out = append(out, StreamSummary{
			Spec:          specs[k],
			MeasuredNodes: q.Len(),
			LagP50:        cdf.ValueAtPercentile(50),
			LagP90:        cdf.ValueAtPercentile(90),
			NeverFrac:     cdf.NeverFrac(),
			JFMean:        metrics.Mean(q.JitterFree(lag)),
			DeliveryMean:  metrics.Mean(q.Received()),
		})
	}
	return out
}

// usageNodes lists the nodes whose Usage enters usage statistics: every
// node but the broadcasters, whose well-provisioned caps would dilute their
// class, and the crashed nodes, whose Usage is pre-crash bytes over the
// whole stream span.
func (r *Result) usageNodes() []int {
	sources := make(map[wire.NodeID]bool)
	for _, sp := range r.Config.effectiveStreams() {
		sources[sp.Source] = true
	}
	var out []int
	for i := range r.Usage {
		if !sources[wire.NodeID(i)] && !r.Run.Nodes[i].Crashed {
			out = append(out, i)
		}
	}
	return out
}

// UsageByClass returns the mean upload utilization per capability class
// over the nodes usage statistics count (Figure 4).
func (r *Result) UsageByClass() map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, i := range r.usageNodes() {
		cl := r.Run.Nodes[i].Class
		sums[cl] += r.Usage[i]
		counts[cl]++
	}
	for cl := range sums {
		sums[cl] /= float64(counts[cl])
	}
	return sums
}
