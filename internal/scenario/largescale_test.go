package scenario

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/stream"
)

// Small-scale functional tests for the LargeScale dynamics: the physics the
// family exists to measure must actually occur (joins join, bursts crash),
// independent of system size.

// received counts the packets of one node's arrival record that arrived.
func received(recv []time.Duration) int {
	n := 0
	for _, at := range recv {
		if at != stream.NotReceived {
			n++
		}
	}
	return n
}

func TestJoinWaveNodesJoinAndCatchUp(t *testing.T) {
	cfg := Config{
		Nodes:     100,
		Protocol:  StandardGossip,
		Dist:      Ref691,
		Windows:   4,
		Seed:      11,
		Drain:     25 * time.Second,
		JoinWaves: []JoinWave{{At: 7 * time.Second, Count: 25}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Run.Nodes); got != 125 {
		t.Fatalf("collected %d node records, want 125", got)
	}
	// The joiners (ids 100..124) must have received a meaningful share of
	// the stream published after they joined — they are live participants,
	// not dead weight.
	total := cfg.Geometry.TotalPackets(cfg.Windows)
	caught := 0
	for i := 100; i < 125; i++ {
		if received(res.Run.Nodes[i].Recv) > total/4 {
			caught++
		}
	}
	if caught < 20 {
		t.Fatalf("only %d of 25 joiners caught a meaningful share of the stream", caught)
	}
	// And nobody received anything before their wave landed.
	for i := 100; i < 125; i++ {
		for pkt, at := range res.Run.Nodes[i].Recv {
			if at != stream.NotReceived && at < 7*time.Second {
				t.Fatalf("joiner %d received packet %d at %v, before its join at 7s", i, pkt, at)
			}
		}
	}
}

func TestChurnBurstCrashesExpectedFraction(t *testing.T) {
	cfg := Config{
		Nodes:       120,
		Protocol:    StandardGossip,
		Dist:        Ref691,
		Windows:     4,
		Seed:        3,
		Drain:       25 * time.Second,
		ChurnBursts: []ChurnBurst{{At: 8 * time.Second, Fraction: 0.2}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for i, st := range res.NodeNetStats {
		if st.Crashed {
			crashed++
			if i == 0 {
				t.Fatal("the source crashed; bursts must spare node 0")
			}
			if !res.Run.Nodes[i].Crashed {
				t.Fatalf("node %d crashed but its record is not marked", i)
			}
		}
	}
	want := int(0.2 * float64(cfg.Nodes-1))
	if crashed != want {
		t.Fatalf("burst crashed %d nodes, want %d", crashed, want)
	}
	if len(res.Victims) != crashed {
		t.Fatalf("Victims lists %d nodes, %d crashed", len(res.Victims), crashed)
	}
}

func TestLargeScaleSweepGridShape(t *testing.T) {
	sw := LargeScaleSweep([]int{60}, 1, 5, 1)
	sw.Base.Windows = 2
	sw.Base.Drain = 15 * time.Second
	res, err := RunSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4 (steady/flashcrowd/churnbursts/mixed)", len(res.Cells))
	}
	wantVariants := []string{"steady", "flashcrowd", "churnbursts", "mixed"}
	for i, c := range res.Cells {
		if c.Key.Variant != wantVariants[i] {
			t.Fatalf("cell %d variant %q, want %q", i, c.Key.Variant, wantVariants[i])
		}
		if c.Key.Dist != "bimodal-700" || c.Key.Protocol != HEAP {
			t.Fatalf("cell %d key %v: want HEAP on bimodal-700", i, c.Key)
		}
		if c.Summary.MeasuredNodes == 0 {
			t.Fatalf("cell %s measured no nodes", c.Key)
		}
	}
}

// TestLargeScaleXLShardsAndTrackLimit runs the XL configuration end to end at
// a size the short suite can afford: the sharded event loop must leave the
// result byte-identical, the single window must actually disseminate, and
// AggTrackLimit must bound every node's capability table.
func TestLargeScaleXLShardsAndTrackLimit(t *testing.T) {
	const n = 2000
	var prints [][]byte
	for _, shards := range []int{1, 2} {
		r, err := simulate(LargeScaleXL(n, 7, shards))
		if err != nil {
			t.Fatal(err)
		}
		cfg := r.cfg // defaults applied
		// The source (node 0) runs no estimator.
		for i, node := range r.nodes[1:] {
			if known := node.Estimator.KnownNodes(); known == 0 || known > cfg.AggTrackLimit {
				t.Fatalf("shards=%d: node %d tracks %d capabilities, limit %d", shards, i+1, known, cfg.AggTrackLimit)
			}
		}
		res, err := r.collect()
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, fingerprint(t, res))

		delivered, expected := 0, (n-1)*cfg.Geometry.TotalPackets(cfg.Windows)
		for i := 1; i < n; i++ {
			delivered += received(res.Run.Nodes[i].Recv)
		}
		if share := float64(delivered) / float64(expected); share < 0.9 {
			t.Fatalf("shards=%d: only %.1f%% of the window was delivered", shards, 100*share)
		}
	}
	if !bytes.Equal(prints[0], prints[1]) {
		t.Fatal("LargeScaleXL result differs between 1 and 2 shards")
	}
}
