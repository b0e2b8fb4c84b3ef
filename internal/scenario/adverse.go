package scenario

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/simnet"
)

// This file wires internal/netem into the scenario layer: capability-trace
// application, and the Adverse* variant axis that puts the stock adverse
// profiles into sweep grids (`heapsweep -netem`) and the LargeScale family.

// applyCapTraces schedules the engine's materialized capability traces:
// at each step, the node's uplink capacity (unless the run is
// unconstrained) and its advertised capability (HEAP) are rewritten to
// Factor times their base values. The base is captured before any step
// fires, so factors never compound; a final factor of 1 restores the
// original capability exactly. Silent traces skip the advertisement — the
// node's claim goes stale against its real capacity, the regime the
// adaptation layer (Config.Adapt) exists to detect. Broadcasters never
// degrade, so a trace skips every stream's source.
func (r *run) applyCapTraces(net *simnet.Network) {
	unconstrained, nodes := r.cfg.Unconstrained, r.nodes
	for _, tr := range r.netem.CapTraces() {
		for _, id := range tr.Nodes {
			if int(id) < 0 || int(id) >= len(r.effective) || r.sourceNode[id] {
				continue // broadcasters and out-of-range ids are never traced
			}
			baseBps := r.effective[id]
			baseAdv := r.advertised[id]
			silent := tr.Silent
			for _, step := range tr.Steps {
				id, step := id, step
				net.Schedule(step.At, func() {
					if int(id) >= net.NumNodes() {
						return // a wave node traced before its wave landed
					}
					// Unconstrained runs have no uplink caps to degrade,
					// and a tiny factor must not round a capped uplink
					// down to 0 — simnet reads 0 as "unconstrained", the
					// inverse of degradation.
					if !unconstrained && baseBps > 0 {
						bps := int64(float64(baseBps) * step.Factor)
						if bps == 0 {
							bps = 1
						}
						net.SetUploadBps(id, bps)
					}
					if est := nodes[id].Estimator; est != nil && !silent {
						adv := uint32(float64(baseAdv) * step.Factor)
						if adv == 0 {
							adv = 1
						}
						est.SetSelfCapKbps(adv)
					}
				})
			}
		}
	}
}

// AdverseVariants returns one sweep variant per named netem profile (all
// stock profiles when names is empty): each cell runs with that profile's
// adverse conditions on top of the base config. Combine with a leading
// baseline variant for A/B tables — see cmd/heapsweep's -netem flag.
func AdverseVariants(names ...string) ([]Variant, error) {
	if len(names) == 0 {
		names = netem.ProfileNames()
	}
	out := make([]Variant, 0, len(names))
	for _, name := range names {
		p, err := netem.Profile(name)
		if err != nil {
			return nil, err
		}
		profile := p
		out = append(out, Variant{
			Name:   "adv-" + name,
			Mutate: func(c *Config) { c.Netem = &profile },
		})
	}
	return out, nil
}

// LargeScaleAdverseVariants extends the LargeScale variant axis with the
// named adverse profiles on top of the steady baseline (size-derived fanout
// included), so `heapsweep -largescale -netem` sweeps system size against
// network adversity in one grid.
func LargeScaleAdverseVariants(names ...string) ([]Variant, error) {
	adv, err := AdverseVariants(names...)
	if err != nil {
		return nil, err
	}
	out := make([]Variant, 0, len(adv))
	for _, v := range adv {
		inner := v.Mutate
		out = append(out, Variant{
			Name:   v.Name,
			Mutate: func(c *Config) { largeScaleSizeFanout(c); inner(c) },
		})
	}
	return out, nil
}

// NetemSummary renders one run's per-model netem counters as a compact
// single-line summary for progress output and reports; empty without netem.
func NetemSummary(stats []netem.ModelStats) string {
	if len(stats) == 0 {
		return ""
	}
	out := ""
	for _, st := range stats {
		if st.Drops == 0 && st.Delayed == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d dropped", st.Name, st.Drops)
		if st.Delayed > 0 {
			out += fmt.Sprintf("/%d delayed (mean %s)", st.Delayed,
				(st.DelaySum / time.Duration(st.Delayed)).Round(time.Millisecond))
		}
	}
	if out == "" {
		return "no drops or delays"
	}
	return out
}
