package misbehave

import (
	"math/rand"

	"repro/internal/membership"
	"repro/internal/wire"
)

// QuarantineSampler wires the detector's verdicts through the membership
// sampler: gossip target draws exclude currently quarantined peers, so a
// convicted freerider stops receiving this node's proposals — and with them
// the payloads it was freeriding on. Filtered slots are redrawn (bounded)
// so honest fanout is preserved.
//
// When nothing is quarantined the wrapper draws exactly once and consumes
// exactly the inner sampler's randomness, so an unarmed detector leaves the
// peer-selection stream untouched.
type QuarantineSampler struct {
	// Inner is the wrapped sampler (static view or PSS).
	Inner membership.Sampler
	// Detector supplies the quarantine verdicts.
	Detector *Detector
}

// redrawRounds bounds the extra draws replacing filtered slots. Two rounds
// recover full fanout except under mass quarantine, where a short draw is
// the correct outcome anyway (most of the view is convicted).
const redrawRounds = 2

// AppendPeers implements membership.Sampler: up to k non-quarantined peers,
// filtered in place in dst.
func (s *QuarantineSampler) AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	base := len(dst)
	dst = s.Inner.AppendPeers(dst, rng, k)
	kept := dst[:base]
	for _, p := range dst[base:] {
		if !s.Detector.Quarantined(p) {
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
		extra := s.Inner.AppendPeers(kept, rng, k-(mark-base))
		for _, p := range extra[mark:] {
			if s.Detector.Quarantined(p) || contains(kept[base:], p) {
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

// PeerCount returns the inner sampler's population size (quarantined peers
// included: the count sizes fanout budgets, and quarantine is a routing
// decision, not a membership one).
func (s *QuarantineSampler) PeerCount() int { return s.Inner.PeerCount() }

// contains reports whether id is already drawn; fanouts are small, so a
// linear scan beats building a set.
func contains(peers []wire.NodeID, id wire.NodeID) bool {
	for _, p := range peers {
		if p == id {
			return true
		}
	}
	return false
}
