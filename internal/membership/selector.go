package membership

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/wire"
)

// Selector is a node's one target-selection seam, Algorithm 1's selectNodes:
// the engine's flat and split gossip draws, the capability estimator's and
// the size averager's partners all come through one. With Exclude and
// Weights nil every draw is From's own, rng draw for rng draw.
type Selector struct {
	// From is the membership the draws come from: a View or a Cyclon.
	From Sampler
	// Exclude, when non-nil, rejects peers no draw may return (the
	// misbehavior detector's quarantine). A flat draw drops them and
	// redraws at most twice to refill; a cluster View's split draw passes
	// over them inside its shuffle.
	Exclude func(wire.NodeID) bool
	// Weights, when non-nil, makes flat draws pick each peer with
	// probability proportional to Weights[peer], without replacement (the
	// SourceBias ablation); it must cover every id From can return. A
	// cluster View's split draw stays uniform per side.
	Weights []uint32

	scratch []wire.NodeID // From's whole peer list, for a weighted draw
}

var _ Sampler = (*Selector)(nil)

// redrawRounds bounds the extra draws replacing excluded slots. Two rounds
// recover full fanout except under mass exclusion, where a short draw is the
// correct outcome anyway (most of the view is convicted).
const redrawRounds = 2

// AppendPeers implements Sampler: up to k peers Exclude does not reject,
// filtered in place in dst. What dst already holds is the caller's: neither
// filtered nor counted.
func (s *Selector) AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	base := len(dst)
	dst = s.draw(dst, rng, k)
	if s.Exclude == nil {
		return dst
	}
	kept := dst[:base]
	for _, p := range dst[base:] {
		if !s.Exclude(p) {
			kept = append(kept, p)
		}
	}
	if len(kept) == len(dst) {
		return kept
	}
	for round := 0; round < redrawRounds && len(kept)-base < k; round++ {
		// The redraw lands behind kept in the same buffer; survivors are
		// compacted forward, so a write never overtakes the read position.
		mark := len(kept)
		extra := s.draw(kept, rng, k-(mark-base))
		for _, p := range extra[mark:] {
			if s.Exclude(p) || slices.Contains(kept[base:], p) {
				continue
			}
			kept = append(kept, p)
		}
		if len(kept) == mark {
			break
		}
	}
	return kept
}

// AppendSplit implements Sampler. From a cluster View it is the View's split
// draw with Exclude passed over inside the shuffle; any other sampler has no
// sides to split, so the draw is AppendPeers of kIntra+kInter.
func (s *Selector) AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int) []wire.NodeID {
	if v, ok := s.From.(*View); ok && v.clusterOf != nil {
		return v.appendSplit(dst, rng, kIntra, kInter, s.Exclude)
	}
	return s.AppendPeers(dst, rng, max(kIntra, 0)+max(kInter, 0))
}

// draw appends up to k distinct peers from From: its uniform draw, or with
// Weights one weighted pick per slot over the peers not yet chosen, in the
// order From lists them.
func (s *Selector) draw(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	if s.Weights == nil {
		return s.From.AppendPeers(dst, rng, k)
	}
	// Asking a View for all of its peers copies them without an rng draw.
	s.scratch = s.From.AppendPeers(s.scratch[:0], rng, math.MaxInt)
	peers := s.scratch
	if k >= len(peers) {
		return append(dst, peers...)
	}
	var total int64
	for _, p := range peers {
		total += int64(s.Weights[p])
	}
	for picked := 0; picked < k && total > 0; picked++ {
		target := rng.Int63n(total)
		var acc int64
		for i, p := range peers {
			if p == wire.NodeNone {
				continue
			}
			acc += int64(s.Weights[p])
			if acc > target {
				peers[i] = wire.NodeNone // chosen: blanked for later picks
				dst = append(dst, p)
				total -= int64(s.Weights[p])
				break
			}
		}
	}
	return dst
}
