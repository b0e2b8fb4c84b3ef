package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// lowRateGeometry is a stream geometry light enough that two concurrent
// streams fit comfortably under the Table 1 capability means, so sanity
// tests can expect near-full delivery.
func lowRateGeometry() stream.Geometry {
	return stream.Geometry{
		RateBps:         150_000,
		PacketBytes:     1316,
		DataPerWindow:   20,
		ParityPerWindow: 4,
	}
}

func TestMultiSourceConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Nodes: 50, Protocol: HEAP, Dist: Ref691, Windows: 2, Seed: 1}
	}
	t.Run("duplicate stream ids", func(t *testing.T) {
		cfg := base()
		cfg.Streams = []StreamSpec{{ID: 4}, {ID: 4, Source: 1}}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "duplicate stream id") {
			t.Fatalf("err = %v, want duplicate stream id error", err)
		}
	})
	t.Run("zero-rate source", func(t *testing.T) {
		cfg := base()
		cfg.Streams = []StreamSpec{
			{},
			{Geometry: stream.Geometry{PacketBytes: 1316, DataPerWindow: 10, ParityPerWindow: 2}},
		}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "zero-rate source") {
			t.Fatalf("err = %v, want zero-rate source error", err)
		}
	})
	t.Run("source outside system", func(t *testing.T) {
		cfg := base()
		cfg.Streams = []StreamSpec{{}, {Source: 50}}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "outside the initial system") {
			t.Fatalf("err = %v, want source-range error", err)
		}
	})
	t.Run("static tree is single-stream", func(t *testing.T) {
		cfg := base()
		cfg.Protocol = StaticTree
		cfg.Streams = []StreamSpec{{}, {}}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "single-stream") {
			t.Fatalf("err = %v, want static-tree error", err)
		}
	})
	t.Run("defaults fill ids sources and starts", func(t *testing.T) {
		cfg := base()
		cfg.Streams = []StreamSpec{{}, {}, {Start: 9 * time.Second}}
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		want := []struct {
			id  wire.StreamID
			src wire.NodeID
		}{{0, 0}, {1, 1}, {2, 2}}
		for i, w := range want {
			if cfg.Streams[i].ID != w.id || cfg.Streams[i].Source != w.src {
				t.Fatalf("spec %d = id %d src %d, want id %d src %d",
					i, cfg.Streams[i].ID, cfg.Streams[i].Source, w.id, w.src)
			}
		}
		if cfg.Streams[0].Start != cfg.StreamStart || cfg.Streams[2].Start != 9*time.Second {
			t.Fatalf("starts = %v, %v", cfg.Streams[0].Start, cfg.Streams[2].Start)
		}
	})
}

// TestMultiSourceTwoStreamsDeliver runs two staggered low-rate streams from
// two broadcasters and requires both to disseminate: per-stream records,
// per-stream summaries, and the source-exclusion bookkeeping.
func TestMultiSourceTwoStreamsDeliver(t *testing.T) {
	cfg := Config{
		Nodes:    60,
		Protocol: HEAP,
		Dist:     Ref691,
		Seed:     5,
		Geometry: lowRateGeometry(),
		Windows:  3,
		Streams: []StreamSpec{
			{},
			{Start: 8 * time.Second},
		},
		Drain: 30 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StreamRuns) != 2 {
		t.Fatalf("StreamRuns = %d, want 2", len(res.StreamRuns))
	}
	if res.Run != res.StreamRuns[0] {
		t.Fatal("Run must alias StreamRuns[0]")
	}
	for k, run := range res.StreamRuns {
		// Offline (lag = Never) jitter-free share: both streams must be
		// near-fully decodable across the system.
		vals := run.Quality().JitterFree(1 << 62)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if mean := sum / float64(len(vals)); mean < 0.95 {
			t.Fatalf("stream %d offline jitter-free mean %.3f, want >= 0.95", k, mean)
		}
		// The stream's own source is excluded, the other source is not.
		src := cfg.Streams[k].Source
		for i := range run.Nodes {
			want := run.Nodes[i].Node == src
			if run.Nodes[i].Excluded != want {
				t.Fatalf("stream %d node %d excluded=%v, want %v", k, i, run.Nodes[i].Excluded, want)
			}
		}
	}
	sums := res.StreamSummaries(10 * time.Second)
	if len(sums) != 2 {
		t.Fatalf("StreamSummaries = %d entries", len(sums))
	}
	for _, s := range sums {
		if s.MeasuredNodes != cfg.Nodes-1 {
			t.Fatalf("stream %d measured %d nodes, want %d", s.Spec.ID, s.MeasuredNodes, cfg.Nodes-1)
		}
		if s.NeverFrac > 0.1 {
			t.Fatalf("stream %d never-frac %.2f too high for an uncontended run", s.Spec.ID, s.NeverFrac)
		}
	}
	// Per-stream byte accounting: both streams moved real traffic on every
	// relaying node's uplink.
	counted := 0
	for i, ns := range res.NodeNetStats {
		if ns.SentByStream[0] > 0 && ns.SentByStream[1] > 0 {
			counted++
		}
		_ = i
	}
	if counted < cfg.Nodes/2 {
		t.Fatalf("only %d of %d nodes sent traffic on both streams", counted, cfg.Nodes)
	}
}

// TestMultiSourceBudgetPaperScale is the acceptance check for the
// fanout-budget allocator: a 4-source HEAP run at paper scale (ms-691,
// 270 nodes) where the aggregate stream rate (4 x 600 kbps effective) far
// exceeds the mean capability (691 kbps). Every node's aggregate send rate
// must stay within its UploadKbps: transmitted utilization <= 1 and no
// uplink queue diverging (bounded backlog), which together bound the
// offered rate. Without the allocator, 512 kbps nodes are offered ~1.8 Mbps
// and their queues grow by seconds per second.
func TestMultiSourceBudgetPaperScale(t *testing.T) {
	cfg := Config{
		Nodes:    270,
		Protocol: HEAP,
		Dist:     MS691,
		Seed:     11,
		Windows:  4,
		Streams: []StreamSpec{
			{},
			{Start: 6 * time.Second},
			{Start: 7 * time.Second},
			{Start: 8 * time.Second},
		},
		Drain:              30 * time.Second,
		BacklogProbePeriod: time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StreamRuns) != 4 {
		t.Fatalf("StreamRuns = %d, want 4", len(res.StreamRuns))
	}
	// Aggregate send rate <= UploadKbps for every node (sources included):
	// Usage measures transmitted bits over capability across the streaming
	// span; the pacing model cannot transmit past capacity, so a node that
	// tried to exceed its budget shows up as Usage pinned at ~1 *and* a
	// diverging backlog. Require both margins.
	for i, u := range res.Usage {
		if u > 1.02 {
			t.Fatalf("node %d (cap %d kbps) utilization %.3f exceeds its upload capability",
				i, res.CapsKbps[i], u)
		}
	}
	maxBacklog := 0.0
	for _, s := range res.BacklogSamples {
		if s.Max > maxBacklog {
			maxBacklog = s.Max
		}
	}
	if maxBacklog > 3.0 {
		t.Fatalf("max uplink backlog %.1fs: some node is being offered more than its upload capability", maxBacklog)
	}
	// Fair sharing, not starvation: the rate-weighted budget division gives
	// every stream the same scaled fanout, so the four streams' mean
	// delivery ratios must come out close (measured ~0.67-0.69 each — with
	// Σr ≈ 3.5x bbar the system *cannot* deliver fully; the allocator's job
	// is to degrade all streams uniformly within the upload budget instead
	// of letting queues collapse).
	minRatio, maxRatio := 1.0, 0.0
	for k, run := range res.StreamRuns {
		total := run.Geometry.TotalPackets(run.Windows)
		var sum float64
		var n int
		for i := range run.Nodes {
			if run.Nodes[i].Excluded {
				continue
			}
			got := 0
			for _, at := range run.Nodes[i].Recv {
				if at != stream.NotReceived {
					got++
				}
			}
			sum += float64(got) / float64(total)
			n++
		}
		mean := sum / float64(n)
		if mean < 0.4 {
			t.Fatalf("stream %d mean delivery ratio %.3f: starved under budget sharing", k, mean)
		}
		if mean < minRatio {
			minRatio = mean
		}
		if mean > maxRatio {
			maxRatio = mean
		}
	}
	if maxRatio > 1.5*minRatio {
		t.Fatalf("per-stream delivery ratios spread [%.3f, %.3f]: budget division is not rate-fair",
			minRatio, maxRatio)
	}
	// Per-stream lag summaries must be computable and ordered by start.
	sums := res.StreamSummaries(20 * time.Second)
	if len(sums) != 4 {
		t.Fatalf("StreamSummaries = %d entries, want 4", len(sums))
	}
}
