package membership

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// scriptSampler replays a fixed script of draws, recording how often it was
// consulted.
type scriptSampler struct {
	script [][]wire.NodeID
	calls  int
}

func (s *scriptSampler) AppendPeers(dst []wire.NodeID, _ *rand.Rand, k int) []wire.NodeID {
	if s.calls >= len(s.script) {
		s.calls++
		return dst
	}
	out := s.script[s.calls]
	s.calls++
	if len(out) > k {
		out = out[:k]
	}
	return append(dst, out...)
}

func (s *scriptSampler) AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int) []wire.NodeID {
	return s.AppendPeers(dst, rng, kIntra+kInter)
}

// excludeSet returns an Exclude predicate rejecting exactly ids.
func excludeSet(ids ...wire.NodeID) func(wire.NodeID) bool {
	return func(id wire.NodeID) bool { return slices.Contains(ids, id) }
}

func TestSelectorPassThrough(t *testing.T) {
	for _, exclude := range []func(wire.NodeID) bool{nil, excludeSet()} {
		from := &scriptSampler{script: [][]wire.NodeID{{1, 2, 3}}}
		s := &Selector{From: from, Exclude: exclude}
		got := s.AppendPeers(nil, rand.New(rand.NewSource(1)), 3)
		if !slices.Equal(got, []wire.NodeID{1, 2, 3}) || from.calls != 1 {
			t.Fatalf("clean draw: %v in %d calls, want one untouched draw", got, from.calls)
		}
	}
}

func TestSelectorFiltersAndRedraws(t *testing.T) {
	from := &scriptSampler{script: [][]wire.NodeID{
		{1, 2, 3}, // 2 is excluded and filtered
		{4},       // redraw fills the freed slot
	}}
	s := &Selector{From: from, Exclude: excludeSet(2, 5)}
	// What dst already holds is the caller's: neither filtered nor counted.
	got := s.AppendPeers([]wire.NodeID{2}, rand.New(rand.NewSource(1)), 3)
	if want := []wire.NodeID{2, 1, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("draw = %v, want %v", got, want)
	}
}

// TestSelectorRedrawDedup checks a redraw that only re-offers peers already
// kept makes no progress and terminates the redraw loop early.
func TestSelectorRedrawDedup(t *testing.T) {
	from := &scriptSampler{script: [][]wire.NodeID{
		{1, 2, 3},
		{1}, // duplicate of a kept peer: no growth, loop breaks
		{4}, // must never be consulted
	}}
	s := &Selector{From: from, Exclude: excludeSet(2)}
	got := s.AppendPeers(nil, rand.New(rand.NewSource(1)), 3)
	if !slices.Equal(got, []wire.NodeID{1, 3}) {
		t.Fatalf("draw = %v, want [1 3]", got)
	}
	if from.calls != 2 {
		t.Fatalf("sampler consulted %d times, want 2 (break on no growth)", from.calls)
	}
}

// TestSelectorMassExclusion checks the redraw bound: when most of the view
// is excluded, the selector gives up after redrawRounds instead of spinning,
// and a short draw is returned.
func TestSelectorMassExclusion(t *testing.T) {
	from := &scriptSampler{script: [][]wire.NodeID{
		{1, 2, 3}, {4, 5, 6}, {1, 2, 3}, {4, 5, 6}, {1, 2, 3},
	}}
	s := &Selector{From: from, Exclude: excludeSet(1, 2, 3, 4, 5, 6)}
	got := s.AppendPeers(nil, rand.New(rand.NewSource(1)), 3)
	if len(got) != 0 {
		t.Fatalf("mass exclusion drew %v, want empty", got)
	}
	if from.calls > 1+redrawRounds {
		t.Fatalf("sampler consulted %d times, want ≤ %d", from.calls, 1+redrawRounds)
	}
}

func TestSelectorWeights(t *testing.T) {
	caps := []uint32{0, 3000, 3000, 100, 100, 100, 100, 100, 100, 100}
	s := &Selector{From: NewView(0, idRange(10)), Weights: caps}
	rng := rand.New(rand.NewSource(8))
	counts := map[int]int{}
	for trial := 0; trial < 3000; trial++ {
		for _, p := range s.AppendPeers(nil, rng, 2) {
			counts[int(p)]++
		}
	}
	// Rich nodes (1,2) must be selected far more often than poor ones.
	richMean := float64(counts[1]+counts[2]) / 2
	poorMean := float64(counts[3]+counts[4]+counts[5]) / 3
	if richMean < 4*poorMean {
		t.Fatalf("bias too weak: rich %.0f vs poor %.0f", richMean, poorMean)
	}
	// Oversized k returns the whole view.
	if got := s.AppendPeers(nil, rng, 100); len(got) != 9 {
		t.Fatalf("oversized k returned %d peers", len(got))
	}
}

// FuzzSelectorOracle drives a Selector over a plain or cluster View with
// decoded exclusion sets, weights and a sequence of flat and split draws.
// A draw never returns self, a duplicate, an excluded peer, or more than
// asked; with nothing excluded and no weights it equals an identical View's
// own draw from the same rng state; a cluster View's split counts equal
// splitOracle over the peers not excluded.
//
// Input: n, cluster count, self, flags (bit 0 cluster view, bit 1 weights,
// bits 2-4 exclusion density in fifths, bits 5-7 exclusion offset), then
// two bytes per draw (split flag and kIntra or k, kInter).
func FuzzSelectorOracle(f *testing.F) {
	f.Add([]byte{60, 3, 0, 0b001, 0x07, 0x02, 0x0c, 0x04, 0x02, 0x0a, 0x51, 0x51})
	f.Add([]byte{40, 2, 5, 0b01001, 0x07, 0x02, 0x0c, 0x00, 0x09, 0x09, 0x50, 0x50})
	f.Add([]byte{31, 31, 17, 0b101, 0x07, 0x02, 0x0c, 0x04, 0x02, 0x0a, 0x10, 0x05})
	f.Add([]byte{25, 1, 4, 0b11101, 0x03, 0x02, 0x0d, 0x04, 0x00, 0x00})
	f.Add([]byte{30, 1, 0, 0b000, 0x0a, 0x00, 0x07, 0x04, 0x0b, 0x03})
	f.Add([]byte{12, 1, 3, 0b10110, 0x06, 0x00, 0x0b, 0x05, 0x30, 0x00, 0x03, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 3 + int(data[0])%62
		clusterOf := clusterMod(1 + int(data[1])%n)
		self := wire.NodeID(int(data[2]) % n)
		flags := data[3]
		density, offset := int(flags>>2&7)%6, int(flags>>5)
		excluded := func(id wire.NodeID) bool { return (int(id)+offset)%5 < density }
		var exclude func(wire.NodeID) bool
		if density > 0 {
			exclude = excluded
		}
		var weights []uint32
		if flags&2 != 0 {
			weights = make([]uint32, n)
			for i := range weights {
				weights[i] = uint32(i % 4) // zeros included
			}
		}
		build := func() *View {
			if flags&1 != 0 {
				return NewClusterView(self, idRange(n), clusterOf)
			}
			return NewView(self, idRange(n))
		}
		v, ref := build(), build()
		s := &Selector{From: v, Exclude: exclude, Weights: weights}
		rng, refRng := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		plain := exclude == nil && weights == nil

		nIntra, nInter := 0, 0
		for _, id := range idRange(n) {
			switch {
			case id == self || excluded(id):
			case clusterOf(id) == clusterOf(self):
				nIntra++
			default:
				nInter++
			}
		}
		for ops := data[4:]; len(ops) >= 2; ops = ops[2:] {
			split := ops[0]&1 != 0
			kIntra, kInter := int(ops[0]>>1)%12-1, int(ops[1])%12-1
			var got, want []wire.NodeID
			asked := max(kIntra, 0) + max(kInter, 0)
			if split {
				got = s.AppendSplit(nil, rng, kIntra, kInter)
				if plain {
					want = ref.AppendSplit(nil, refRng, kIntra, kInter)
				}
			} else {
				asked = max(kIntra, 0)
				got = s.AppendPeers(nil, rng, kIntra)
				if plain {
					want = ref.AppendPeers(nil, refRng, kIntra)
				}
			}
			if len(got) > asked {
				t.Fatalf("drew %d peers, asked for %d", len(got), asked)
			}
			for i, id := range got {
				if id == self || excluded(id) || slices.Contains(got[:i], id) {
					t.Fatalf("draw %v: peer %d is self, excluded or a duplicate", got, id)
				}
			}
			if plain && !slices.Equal(got, want) {
				t.Fatalf("selector drew %v, the view's own draw is %v", got, want)
			}
			if split && flags&1 != 0 {
				wantIntra, wantInter := splitOracle(max(kIntra, 0), max(kInter, 0), nIntra, nInter)
				gotIntra := 0
				for _, id := range got {
					if clusterOf(id) == clusterOf(self) {
						gotIntra++
					}
				}
				if gotIntra != wantIntra || len(got)-gotIntra != wantInter {
					t.Fatalf("k=(%d,%d): split (%d,%d), oracle (%d,%d) over pools (%d,%d)",
						kIntra, kInter, gotIntra, len(got)-gotIntra, wantIntra, wantInter, nIntra, nInter)
				}
			}
		}
	})
}
