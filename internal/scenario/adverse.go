package scenario

import (
	"fmt"
	"time"

	"repro/internal/netem"
)

// This file holds the Adverse* variant axis that puts the stock adverse
// netem profiles into sweep grids (`heapsweep -netem`) and the LargeScale
// family. Capability traces apply through capAt (scenario.go).

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
