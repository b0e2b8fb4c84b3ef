// Package churn injects failures into simulated runs: the catastrophic
// failure scenarios of §3.6 (20% / 50% of the nodes crash simultaneously,
// survivors learn of each failure with a configurable average delay).
package churn

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/membership"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Catastrophic describes a simultaneous mass failure (§3.6).
type Catastrophic struct {
	// At is when the failure strikes.
	At time.Duration
	// Fraction of nodes that crash (chosen uniformly at random among
	// non-protected nodes, which keeps the capability supply ratio
	// unchanged in expectation, as in the paper).
	Fraction float64
	// NotifyMean is the mean delay until a survivor removes a failed node
	// from its view. Delays are drawn independently per (survivor, victim)
	// pair, uniform on [0, 2·NotifyMean]. The paper uses a 10 s average.
	NotifyMean time.Duration
	// Protect lists nodes that must not be killed (e.g., the source).
	Protect []wire.NodeID
}

// Validate checks the parameters.
func (c Catastrophic) Validate() error {
	if !(0 <= c.Fraction && c.Fraction < 1) {
		return fmt.Errorf("churn: fraction %v outside [0,1)", c.Fraction)
	}
	if c.NotifyMean < 0 {
		return fmt.Errorf("churn: negative notify mean")
	}
	return nil
}

// Apply schedules the failure on the network: victims crash at c.At, and
// every survivor's view drops every victim after an independent notification
// delay. views[i] must be node i's view (nil entries are skipped, e.g. for
// nodes without membership state). Returns the chosen victims.
func (c Catastrophic) Apply(net *simnet.Network, views []*membership.View, rng *rand.Rand) ([]wire.NodeID, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	protected := make(map[wire.NodeID]bool, len(c.Protect))
	for _, id := range c.Protect {
		protected[id] = true
	}
	candidates := make([]wire.NodeID, 0, net.NumNodes())
	for i := 0; i < net.NumNodes(); i++ {
		if id := wire.NodeID(i); !protected[id] {
			candidates = append(candidates, id)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	nVictims := int(c.Fraction * float64(net.NumNodes()))
	if nVictims > len(candidates) {
		nVictims = len(candidates)
	}
	victims := candidates[:nVictims]

	victimSet := make(map[wire.NodeID]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
	}
	for _, v := range victims {
		v := v
		net.Schedule(c.At, func() { net.Crash(v) })
	}
	// Failure notifications: per (survivor, victim) pair.
	for i := 0; i < net.NumNodes(); i++ {
		id := wire.NodeID(i)
		if victimSet[id] || views[i] == nil {
			continue
		}
		view := views[i]
		for _, v := range victims {
			v := v
			delay := time.Duration(0)
			if c.NotifyMean > 0 {
				delay = time.Duration(rng.Int63n(int64(2 * c.NotifyMean)))
			}
			net.Schedule(c.At+delay, func() { view.Remove(v) })
		}
	}
	return victims, nil
}
