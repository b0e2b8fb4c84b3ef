package membership

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/wire"
)

// clusterMod assigns node id -> id % m, a transparent oracle-friendly
// cluster function.
func clusterMod(m int) func(wire.NodeID) int {
	return func(id wire.NodeID) int { return int(id) % m }
}

func idRange(n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	return ids
}

// splitOracle computes the exact intra/inter counts AppendSplit must
// produce given the eligible pool sizes: fill each side's budget, spill
// intra leftovers across the boundary, then spill inter leftovers back.
func splitOracle(kIntra, kInter, nIntra, nInter int) (intra, inter int) {
	a1 := kIntra
	if a1 > nIntra {
		a1 = nIntra
	}
	b := kInter + (kIntra - a1)
	if b > nInter {
		b = nInter
	}
	a2 := kIntra + kInter - a1 - b
	if a2 > nIntra-a1 {
		a2 = nIntra - a1
	}
	return a1 + a2, b
}

// TestAppendSplitOracle is the cluster-biased sampler property test: for a
// grid of population shapes, budgets, and quarantine sets, every draw must
// match a brute-force oracle — exact intra/inter split, no duplicates,
// never self, excluded peers never sampled, and degenerate shapes (size-1
// cluster, single cluster) falling back to a uniform draw of the whole
// eligible pool.
func TestAppendSplitOracle(t *testing.T) {
	shapes := []struct {
		name     string
		n, mod   int
		self     wire.NodeID
		excluded []wire.NodeID
	}{
		{"balanced", 60, 3, 0, nil},
		{"balanced-excl", 60, 3, 0, []wire.NodeID{3, 6, 7, 20}},
		{"two-clusters", 40, 2, 5, []wire.NodeID{1, 2}},
		{"size-1-cluster", 31, 31, 17, nil}, // self is alone in its cluster
		{"single-cluster", 25, 1, 4, []wire.NodeID{9}},
		{"tiny", 3, 2, 1, nil},
	}
	budgets := [][2]int{{0, 0}, {1, 0}, {0, 1}, {3, 1}, {6, 2}, {1, 6}, {40, 0}, {0, 40}, {100, 100}, {-2, 3}}
	for _, sh := range shapes {
		clusterOf := clusterMod(sh.mod)
		v := NewClusterView(sh.self, idRange(sh.n), clusterOf)
		quar := make(map[wire.NodeID]bool)
		for _, q := range sh.excluded {
			quar[q] = true
		}
		sel := &Selector{From: v}
		if len(quar) > 0 {
			sel.Exclude = func(id wire.NodeID) bool { return quar[id] }
		}
		// Eligible pool sizes for the oracle.
		selfC := clusterOf(sh.self)
		nIntra, nInter := 0, 0
		for _, id := range idRange(sh.n) {
			if id == sh.self || quar[id] {
				continue
			}
			if clusterOf(id) == selfC {
				nIntra++
			} else {
				nInter++
			}
		}
		rng := rand.New(rand.NewSource(7))
		for _, b := range budgets {
			kIntra, kInter := b[0], b[1]
			cI, cJ := kIntra, kInter
			if cI < 0 {
				cI = 0
			}
			if cJ < 0 {
				cJ = 0
			}
			wantIntra, wantInter := splitOracle(cI, cJ, nIntra, nInter)
			for trial := 0; trial < 200; trial++ {
				got := sel.AppendSplit(nil, rng, kIntra, kInter)
				seen := make(map[wire.NodeID]bool, len(got))
				gotIntra, gotInter := 0, 0
				for _, id := range got {
					if id == sh.self {
						t.Fatalf("%s k=(%d,%d): drew self", sh.name, kIntra, kInter)
					}
					if quar[id] {
						t.Fatalf("%s k=(%d,%d): drew quarantined peer %d", sh.name, kIntra, kInter, id)
					}
					if seen[id] {
						t.Fatalf("%s k=(%d,%d): duplicate peer %d in %v", sh.name, kIntra, kInter, id, got)
					}
					seen[id] = true
					if clusterOf(id) == selfC {
						gotIntra++
					} else {
						gotInter++
					}
				}
				if gotIntra != wantIntra || gotInter != wantInter {
					t.Fatalf("%s k=(%d,%d): split (%d,%d), oracle (%d,%d) over pools (%d,%d)",
						sh.name, kIntra, kInter, gotIntra, gotInter, wantIntra, wantInter, nIntra, nInter)
				}
			}
		}
	}
}

// TestAppendSplitCoverage checks the draws are spread over the whole
// eligible pool: over many trials with small budgets, every eligible peer
// on each side must appear.
func TestAppendSplitCoverage(t *testing.T) {
	v := NewClusterView(0, idRange(48), clusterMod(4))
	rng := rand.New(rand.NewSource(99))
	hit := make(map[wire.NodeID]int)
	for trial := 0; trial < 4000; trial++ {
		for _, id := range v.AppendSplit(nil, rng, 2, 2) {
			hit[id]++
		}
	}
	for _, id := range idRange(48) {
		if id == 0 {
			continue
		}
		if hit[id] == 0 {
			t.Fatalf("eligible peer %d never drawn in 4000 trials", id)
		}
	}
}

// TestAppendSplitUniformFallback pins the non-clustered view's AppendSplit
// to the exact rng draws of AppendPeers, so a plain view asked for a split
// draw behaves like the uniform protocol.
func TestAppendSplitUniformFallback(t *testing.T) {
	a := NewView(0, idRange(30))
	b := NewView(0, idRange(30))
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		got := a.AppendSplit(nil, rngA, 3, 2)
		want := b.AppendPeers(nil, rngB, 5)
		if len(got) != len(want) {
			t.Fatalf("fallback draw differs: %v vs %v", got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("fallback draw differs at %d: %v vs %v", k, got, want)
			}
		}
	}
}

// TestClusterViewChurn drives Add/Remove over a cluster view and checks the
// partition stays consistent with the master list.
func TestClusterViewChurn(t *testing.T) {
	clusterOf := clusterMod(3)
	v := NewClusterView(1, idRange(30), clusterMod(3))
	rng := rand.New(rand.NewSource(11))
	present := make(map[wire.NodeID]bool)
	for _, id := range idRange(30) {
		if id != 1 {
			present[id] = true
		}
	}
	for step := 0; step < 3000; step++ {
		id := wire.NodeID(rng.Intn(40))
		if rng.Intn(2) == 0 {
			v.Add(id)
			if id != 1 {
				present[id] = true
			}
		} else {
			v.Remove(id)
			delete(present, id)
		}
		if v.PeerCount() != len(present) {
			t.Fatalf("step %d: PeerCount %d, want %d", step, v.PeerCount(), len(present))
		}
		if len(v.intra)+len(v.inter) != len(present) {
			t.Fatalf("step %d: partition %d+%d, want %d", step, len(v.intra), len(v.inter), len(present))
		}
		for _, id := range v.intra {
			if clusterOf(id) != clusterOf(1) || !present[id] {
				t.Fatalf("step %d: %d misplaced in intra", step, id)
			}
		}
		for _, id := range v.inter {
			if clusterOf(id) == clusterOf(1) || !present[id] {
				t.Fatalf("step %d: %d misplaced in inter", step, id)
			}
		}
	}
	// Draws over the churned view still honor the oracle.
	selfC := clusterOf(1)
	nIntra, nInter := len(v.intra), len(v.inter)
	wantIntra, wantInter := splitOracle(4, 2, nIntra, nInter)
	got := v.AppendSplit(nil, rng, 4, 2)
	gotIntra := 0
	for _, id := range got {
		if clusterOf(id) == selfC {
			gotIntra++
		}
	}
	if gotIntra != wantIntra || len(got)-gotIntra != wantInter {
		t.Fatalf("post-churn split (%d,%d), oracle (%d,%d)", gotIntra, len(got)-gotIntra, wantIntra, wantInter)
	}
}

// TestClusterSamplerStorm hammers independent cluster views from many
// goroutines under the race detector: the sampler must keep all state
// per-view (no hidden shared scratch), and every goroutine must see
// oracle-exact splits.
func TestClusterSamplerStorm(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clusterOf := clusterMod(4)
			self := wire.NodeID(w)
			v := NewClusterView(self, idRange(64), clusterOf)
			rng := rand.New(rand.NewSource(int64(w)))
			nIntra, nInter := len(v.intra), len(v.inter)
			buf := make([]wire.NodeID, 0, 16)
			for i := 0; i < 5000; i++ {
				kIntra, kInter := rng.Intn(8), rng.Intn(4)
				buf = v.AppendSplit(buf[:0], rng, kIntra, kInter)
				wantIntra, wantInter := splitOracle(kIntra, kInter, nIntra, nInter)
				gotIntra := 0
				for _, id := range buf {
					if clusterOf(id) == clusterOf(self) {
						gotIntra++
					}
				}
				if gotIntra != wantIntra || len(buf)-gotIntra != wantInter {
					t.Errorf("worker %d iter %d: split (%d,%d), oracle (%d,%d)",
						w, i, gotIntra, len(buf)-gotIntra, wantIntra, wantInter)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
