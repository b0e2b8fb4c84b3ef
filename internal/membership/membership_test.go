package membership

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

func TestViewAddRemoveContains(t *testing.T) {
	v := NewView(0, []wire.NodeID{0, 1, 2, 3}) // self (0) must be excluded
	if v.PeerCount() != 3 {
		t.Fatalf("peer count = %d, want 3 (self excluded)", v.PeerCount())
	}
	if v.Contains(0) {
		t.Fatal("view contains self")
	}
	v.Add(0) // no-op
	if v.PeerCount() != 3 {
		t.Fatal("Add(self) changed the view")
	}
	v.Add(2) // duplicate no-op
	if v.PeerCount() != 3 {
		t.Fatal("duplicate Add changed the view")
	}
	v.Remove(2)
	if v.Contains(2) || v.PeerCount() != 2 {
		t.Fatal("Remove failed")
	}
	v.Remove(2) // absent no-op
	if v.PeerCount() != 2 {
		t.Fatal("Remove of absent peer changed the view")
	}
	v.Add(10)
	if !v.Contains(10) || v.PeerCount() != 3 {
		t.Fatal("Add after Remove failed")
	}
	// Ids outside [0, MaxPeerID) are ignored everywhere: they must neither
	// size a position table nor panic a lookup.
	for _, id := range []wire.NodeID{-1, MaxPeerID, 1<<31 - 1} {
		v.Add(id)
		v.Remove(id)
		if v.Contains(id) || v.PeerCount() != 3 || len(v.index) != 11 {
			t.Fatalf("out-of-range id %d changed the view (index len %d)", id, len(v.index))
		}
	}
	v.Add(MaxPeerID - 1)
	if !v.Contains(MaxPeerID-1) || v.PeerCount() != 4 {
		t.Fatal("the largest in-range id was refused")
	}
}

func TestViewAppendPeersNoDuplicatesNoSelf(t *testing.T) {
	ids := make([]wire.NodeID, 50)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	v := NewView(7, ids)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(12)
		sel := v.AppendPeers(nil, rng, k)
		if len(sel) != min(k, 49) {
			t.Fatalf("selected %d, want %d", len(sel), k)
		}
		seen := map[wire.NodeID]bool{}
		for _, id := range sel {
			if id == 7 {
				t.Fatal("selected self")
			}
			if seen[id] {
				t.Fatalf("duplicate selection of %d", id)
			}
			seen[id] = true
		}
	}
}

func TestViewAppendPeersWholeViewWhenKTooLarge(t *testing.T) {
	v := NewView(0, []wire.NodeID{1, 2, 3})
	rng := rand.New(rand.NewSource(2))
	sel := v.AppendPeers(nil, rng, 10)
	if len(sel) != 3 {
		t.Fatalf("selected %d, want all 3", len(sel))
	}
	if got := v.AppendPeers(nil, rng, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %d peers", len(got))
	}
	if got := v.AppendPeers(nil, rng, -1); len(got) != 0 {
		t.Fatalf("k=-1 returned %d peers", len(got))
	}
}

func TestViewSamplingIsApproximatelyUniform(t *testing.T) {
	const n = 30
	const trials = 30000
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	v := NewView(wire.NodeID(n), ids) // self outside the peer set
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, id := range v.AppendPeers(nil, rng, 3) {
			counts[id]++
		}
	}
	want := float64(trials*3) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.15 {
			t.Fatalf("peer %d selected %d times, want ~%.0f (+-15%%)", i, c, want)
		}
	}
}

func TestViewSamplingAfterRemovals(t *testing.T) {
	ids := make([]wire.NodeID, 20)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	v := NewView(100, ids)
	for i := 0; i < 10; i++ {
		v.Remove(wire.NodeID(i))
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		for _, id := range v.AppendPeers(nil, rng, 5) {
			if id < 10 {
				t.Fatalf("selected removed peer %d", id)
			}
		}
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory(5)
	if d.Size() != 5 {
		t.Fatalf("size = %d", d.Size())
	}
	v := d.ViewFor(2)
	if v.PeerCount() != 4 || v.Contains(2) {
		t.Fatal("ViewFor built wrong view")
	}
	ids := d.IDs()
	ids[0] = 99 // must not alias internal state
	if d.IDs()[0] == 99 {
		t.Fatal("IDs returned aliased slice")
	}
}

func TestDirectoryPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDirectory(0) did not panic")
		}
	}()
	NewDirectory(0)
}

// TestViewAppendPeersWholeView checks what callers copying out the whole view
// rely on: no rng draw (a nil rng would panic) and no aliasing.
func TestViewAppendPeersWholeView(t *testing.T) {
	v := NewView(0, []wire.NodeID{1, 2, 3})
	p := v.AppendPeers(nil, nil, 3)
	p[0] = 99
	for _, id := range v.AppendPeers(nil, nil, 3) {
		if id == 99 {
			t.Fatal("AppendPeers returned an aliased slice")
		}
	}
}
