package report

// The topology artifact (beyond the paper's figures): HEAP on a clustered
// WAN/LAN topology, topology-blind vs topology-aware. The paper's network
// model draws every pair latency from one uniform band; real deployments are
// clustered — cheap LAN paths inside a site, expensive WAN paths between
// sites — and the traffic a protocol pushes across the WAN cut is what an
// operator pays for. The artifact embeds the most-skewed distribution in the
// stock three-cluster topology and compares the flat fanout against the
// split intra/inter budget: how many WAN bytes does cluster awareness save,
// and what does it cost in delivered stream quality?

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// topologyProfile is the artifact's network: the stock three-cluster WAN
// ("wan3" — 2-12 ms LAN bands, 60-140 ms WAN bands).
const topologyProfile = "wan3"

// topologySplit is the topo-aware fanout budget. It sums to the suite's flat
// fanout (7), so the A/B reallocates the same per-round budget by locality
// instead of shrinking it.
const (
	topologyFanoutIntra = 6
	topologyFanoutInter = 1
)

func (s *Suite) topologyRun(name string, tc topo.Config, intra, inter float64) (*scenario.Result, error) {
	return s.run(name, func(cfg *scenario.Config) {
		cfg.Protocol = scenario.HEAP
		cfg.Dist = scenario.MS691
		tcCopy := tc
		cfg.Topology = &tcCopy
		cfg.FanoutIntra, cfg.FanoutInter = intra, inter
	})
}

// Topology renders the clustered-topology artifact: WAN traffic and stream
// quality of the flat vs locality-split fanout on the same clustered network.
func (s *Suite) Topology() error {
	tc, err := topo.Profile(topologyProfile)
	if err != nil {
		return err
	}
	blind, err := s.topologyRun("topo-blind", tc, 0, 0)
	if err != nil {
		return err
	}
	aware, err := s.topologyRun("topo-aware", tc, topologyFanoutIntra, topologyFanoutInter)
	if err != nil {
		return err
	}

	lag := lagForDist(scenario.MS691)
	table := &metrics.Table{Headers: []string{"variant", "total MB", "WAN MB",
		"WAN share", "jitter-free", "lag P50/P90 (s)"}}
	row := func(name string, res *scenario.Result) {
		ts := res.TopoStats
		q := res.Run.Quality()
		table.AddRow(name,
			fmtMB(ts.TotalBytes), fmtMB(ts.InterBytes),
			fmtPct(ts.InterShare()), fmtPct(metrics.Mean(q.JitterFree(lag))),
			q.LagCDF().Spread())
	}
	row("topo-blind", blind)
	row("topo-aware", aware)

	bt, at := blind.TopoStats, aware.TopoStats
	saved := 0.0
	if bt.InterBytes > 0 {
		saved = 100 * (1 - float64(at.InterBytes)/float64(bt.InterBytes))
	}
	s.printf("Clustered topology (beyond the paper): %s (%d clusters, sizes %v), HEAP, ms-691\n"+
		"flat fanout %g vs split %g intra + %g inter\n%s\n"+
		"topo-aware cuts inter-cluster (WAN) bytes by %.1f%%\n\n",
		topologyProfile, bt.Clusters, bt.Sizes,
		blind.Config.Fanout, float64(topologyFanoutIntra), float64(topologyFanoutInter),
		table.Render(), saved)
	return nil
}

func fmtMB(b int64) string {
	return fmt.Sprintf("%.1f", float64(b)/1e6)
}

func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}
