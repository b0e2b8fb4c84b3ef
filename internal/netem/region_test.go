package netem

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// regionMod maps node id -> id % m, standing in for a topology's ClusterOf.
func regionMod(m int) func(wire.NodeID) int {
	return func(id wire.NodeID) int { return int(id) % m }
}

func TestBoundaryModel(t *testing.T) {
	b := Boundary{Inner: FixedDelay(5 * time.Millisecond), Set: NewNodeSet(1, 3)}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		from, to wire.NodeID
		want     time.Duration
	}{
		{1, 3, 0},                    // both inside: no crossing
		{2, 4, 0},                    // both outside: no crossing
		{1, 2, 5 * time.Millisecond}, // egress crossing
		{4, 3, 5 * time.Millisecond}, // ingress crossing
	}
	for _, tc := range cases {
		got := b.Judge(tc.from, tc.to, 100, 0, rng)
		if got.Delay != tc.want || got.Drop {
			t.Fatalf("Boundary %d->%d: %+v, want delay %v", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestRegionPartitionBuild checks that a Regions partition materializes the
// cluster's actual members (including node 0) and blocks cross-cut traffic
// during its window.
func TestRegionPartitionBuild(t *testing.T) {
	cfg := Config{Partitions: []PartitionSpec{{
		From: time.Second, Until: 2 * time.Second,
		Regions: [][]int{{0}}, // cluster 0 = ids {0, 3, 6, 9} under mod 3
	}}}
	eng, err := cfg.Build(10, 7, 0, regionMod(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	judge := func(from, to wire.NodeID, now time.Duration) bool {
		return eng.Judge(from, to, 100, now, rng).Drop
	}
	mid := 1500 * time.Millisecond
	if !judge(0, 1, mid) || !judge(1, 9, mid) {
		t.Fatal("cross-cut datagram survived an active region partition")
	}
	if judge(0, 3, mid) || judge(1, 2, mid) {
		t.Fatal("same-side datagram dropped by region partition")
	}
	if judge(0, 1, 500*time.Millisecond) || judge(0, 1, 2500*time.Millisecond) {
		t.Fatal("region partition active outside its window")
	}
}

// TestRegionSpikeBuild checks that a region spike delays only boundary
// crossings of the listed clusters during its window.
func TestRegionSpikeBuild(t *testing.T) {
	cfg := Config{RegionSpikes: []RegionSpike{{
		Spike:   Spike{At: time.Second, Duration: time.Second, Extra: 40 * time.Millisecond},
		Regions: []int{1}, // cluster 1 = ids {1, 3} under mod 2
	}}}
	eng, err := cfg.Build(4, 7, 0, regionMod(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	delay := func(from, to wire.NodeID, now time.Duration) time.Duration {
		return eng.Judge(from, to, 100, now, rng).Delay
	}
	mid := 1500 * time.Millisecond
	if d := delay(1, 0, mid); d != 40*time.Millisecond {
		t.Fatalf("boundary crossing delayed %v, want 40ms", d)
	}
	if d := delay(2, 1, mid); d != 40*time.Millisecond {
		t.Fatalf("reverse crossing delayed %v, want 40ms", d)
	}
	if d := delay(1, 3, mid); d != 0 {
		t.Fatalf("intra-region datagram delayed %v", d)
	}
	if d := delay(0, 2, mid); d != 0 {
		t.Fatalf("outside-region datagram delayed %v", d)
	}
	if d := delay(1, 0, 100*time.Millisecond); d != 0 {
		t.Fatalf("spike active outside its window: %v", d)
	}
}

// TestRegionSpecsNeedResolver pins the error path: region-targeted configs
// must refuse a Build without a region resolver instead of silently ignoring
// the specs.
func TestRegionSpecsNeedResolver(t *testing.T) {
	cfgs := []Config{
		{Partitions: []PartitionSpec{{From: 0, Until: time.Second, Regions: [][]int{{0}}}}},
		{RegionSpikes: []RegionSpike{{Spike: Spike{Duration: time.Second, Extra: time.Millisecond}, Regions: []int{0}}}},
	}
	for i, cfg := range cfgs {
		if _, err := cfg.Build(10, 1, 0, nil); err == nil || !strings.Contains(err.Error(), "topology") {
			t.Fatalf("config %d: Build of region spec without a resolver did not fail usefully: %v", i, err)
		}
		if _, err := cfg.Build(10, 1, 0, regionMod(2)); err != nil {
			t.Fatalf("config %d: resolver build failed: %v", i, err)
		}
	}
}

func TestRegionValidation(t *testing.T) {
	bad := []Config{
		{Partitions: []PartitionSpec{{From: 0, Until: time.Second}}},                                                        // no selector
		{Partitions: []PartitionSpec{{From: 0, Until: time.Second, Regions: [][]int{{0}}, SplitFractions: []float64{0.5}}}}, // two selectors
		{Partitions: []PartitionSpec{{From: 0, Until: time.Second, Regions: [][]int{{}}}}},                                  // empty group
		{Partitions: []PartitionSpec{{From: 0, Until: time.Second, Regions: [][]int{{-1}}}}},                                // negative region
		{RegionSpikes: []RegionSpike{{Spike: Spike{Duration: time.Second}, Regions: nil}}},                                  // no regions
		{RegionSpikes: []RegionSpike{{Spike: Spike{Duration: time.Second, Extra: time.Millisecond}, Regions: []int{-2}}}},   // negative region
		{RegionSpikes: []RegionSpike{{Spike: Spike{Duration: 0, Extra: time.Millisecond}, Regions: []int{0}}}},              // empty window
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}
