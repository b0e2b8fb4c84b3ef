package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

// TestFanoutExpectationProperty checks the stochastic-rounding invariant for
// arbitrary relative capabilities: E[fanout] ~= min(fbar*rel, maxFanout),
// floored at 1.
func TestFanoutExpectationProperty(t *testing.T) {
	rt := &stubRuntime{rng: rand.New(rand.NewSource(2))}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	err := quick.Check(func(relRaw uint8) bool {
		rel := 0.05 + float64(relRaw)/64 // 0.05 .. ~4
		e := MustNew(Config{
			Fanout:       7,
			Adaptive:     true,
			Capabilities: fixedRel(rel),
			Sampler:      noopSampler{},
		})
		e.rt = rt
		const rounds = 8000
		sum := 0
		for i := 0; i < rounds; i++ {
			f := e.fanout()
			if f < 1 || f > 64 {
				return false
			}
			sum += f
		}
		want := 7 * rel
		if want > 64 {
			want = 64
		}
		if want < 1 {
			want = 1
		}
		mean := float64(sum) / rounds
		// 5% relative tolerance plus slack for the floor-at-1 region.
		return mean >= want*0.93-0.1 && mean <= want*1.07+0.1
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

type noopSampler struct{}

func (noopSampler) AppendPeers(dst []wire.NodeID, _ *rand.Rand, _ int) []wire.NodeID { return dst }
func (noopSampler) AppendSplit(dst []wire.NodeID, _ *rand.Rand, _, _ int) []wire.NodeID {
	return dst
}
