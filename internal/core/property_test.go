package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// TestBitsetMatchesMapOracle drives the bitset with random operation
// sequences and compares against a map-based oracle.
func TestBitsetMatchesMapOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b bitset
		oracle := map[uint64]bool{}
		for op := 0; op < 500; op++ {
			key := uint64(rng.Intn(2048))
			switch rng.Intn(3) {
			case 0:
				b.add(key)
				oracle[key] = true
			case 1:
				b.remove(key)
				delete(oracle, key)
			case 2:
				if b.contains(key) != oracle[key] {
					return false
				}
			}
		}
		for key := uint64(0); key < 2048; key++ {
			if b.contains(key) != oracle[key] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanoutExpectationProperty checks the stochastic-rounding invariant for
// arbitrary relative capabilities: E[fanout] ~= min(fbar*rel, MaxFanout),
// floored at 1.
func TestFanoutExpectationProperty(t *testing.T) {
	rt := &propRuntime{rng: rand.New(rand.NewSource(2))}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	err := quick.Check(func(relRaw uint8) bool {
		rel := 0.05 + float64(relRaw)/64 // 0.05 .. ~4
		e := MustNew(Config{
			Fanout:       7,
			Adaptive:     true,
			Capabilities: fixedRel(rel),
			MaxFanout:    64,
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

// propRuntime is the minimal runtime needed by Engine.fanout.
type propRuntime struct {
	rng *rand.Rand
}

var _ env.Runtime = (*propRuntime)(nil)

func (p *propRuntime) ID() wire.NodeID                 { return 0 }
func (p *propRuntime) Rand() *rand.Rand                { return p.rng }
func (p *propRuntime) Now() time.Duration              { return 0 }
func (p *propRuntime) Send(wire.NodeID, wire.Message)  {}
func (p *propRuntime) AfterFunc(time.Duration, func()) {}

type noopSampler struct{}

func (noopSampler) AppendPeers(dst []wire.NodeID, _ *rand.Rand, _ int) []wire.NodeID { return dst }
func (noopSampler) PeerCount() int                                                   { return 0 }
