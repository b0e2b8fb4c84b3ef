package scenario

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/metrics"
	"repro/internal/stack"
)

// This file wires internal/adapt into the scenario layer: per-node
// controller construction during node build (scenario.go), result
// collection (AdaptStats), and the config validation shared by runs and
// sweeps. The controller itself lives in internal/adapt and the engine-side
// sampling in internal/core; here we only decide *who* adapts (every
// constrained non-source node) and *what* each controller observes (the
// simulator's per-node uplink queue).

// AdaptStats carries the adaptation outcomes of one run (nil when
// Config.Adapt is unset). Slices are indexed by node id; nodes without a
// controller (sources, unconstrained nodes) have zero entries and nil
// traces.
type AdaptStats struct {
	// ConfiguredKbps is each controller's ceiling: the capability the node
	// claimed when it joined (Result.AdvertisedKbps — a liar's lie and a
	// non-silent trace step in force included).
	ConfiguredKbps []uint32
	// EffectiveKbps is each controller's final effective capability.
	EffectiveKbps []uint32
	// Traces holds each node's re-advertisement history in time order.
	Traces [][]adapt.Readvertisement
	// Readvertisements totals the re-advertisement events across all nodes.
	Readvertisements int
}

// CapRatioCDF returns the distribution over adapted nodes of the final
// effective-to-configured capability ratio — 1.0 for nodes that never shed
// (or fully recovered) their advertisement, lower for nodes the controller
// is still holding below their claim at run end.
func (a *AdaptStats) CapRatioCDF() metrics.CDF {
	vals := make([]float64, 0, len(a.EffectiveKbps))
	for i, eff := range a.EffectiveKbps {
		if eff == 0 || a.ConfiguredKbps[i] == 0 {
			continue
		}
		vals = append(vals, float64(eff)/float64(a.ConfiguredKbps[i]))
	}
	return metrics.NewCDF(vals)
}

// AdaptedNodes counts the nodes that ran a controller.
func (a *AdaptStats) AdaptedNodes() int {
	n := 0
	for _, eff := range a.EffectiveKbps {
		if eff != 0 {
			n++
		}
	}
	return n
}

// validateAdapt checks the adaptation knobs against the rest of the config.
// Called from applyDefaults.
func (c *Config) validateAdapt() error {
	if c.Adapt == nil {
		return nil
	}
	if err := c.Adapt.Validate(); err != nil {
		return err
	}
	if c.Unconstrained {
		return fmt.Errorf("scenario: Adapt requires constrained uploads (there is no uplink queue to observe)")
	}
	if c.Protocol == StaticTree {
		return fmt.Errorf("scenario: Adapt requires a gossip protocol (the static tree has no engine)")
	}
	return nil
}

// collectAdaptStats folds the per-node controllers into the result record.
func collectAdaptStats(nodes []*stack.Node) *AdaptStats {
	stats := &AdaptStats{
		ConfiguredKbps: make([]uint32, len(nodes)),
		EffectiveKbps:  make([]uint32, len(nodes)),
		Traces:         make([][]adapt.Readvertisement, len(nodes)),
	}
	for i, n := range nodes {
		if ctrl := n.Controller; ctrl != nil {
			stats.ConfiguredKbps[i] = ctrl.ConfiguredKbps()
			stats.EffectiveKbps[i] = ctrl.EffectiveKbps()
			stats.Traces[i] = ctrl.Trace()
			stats.Readvertisements += ctrl.Readvertisements()
		}
	}
	return stats
}
