package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart anchors setup_s: package variables initialize before main
// runs, so this is as close to exec as the process itself can observe.
var processStart = time.Now()

// rep is one repetition of a workload: what the timed section cost the host
// and what the system under test produced in it. Correctness digests
// (delivery maps, fingerprints) stay with the workload; rep carries only
// what the metrics are computed from.
type rep struct {
	wall    time.Duration
	cpu     time.Duration // getrusage user+sys of the whole process
	mallocs uint64        // MemStats.Mallocs delta

	deliveries int64 // see README: stream packets at receivers / datagrams dispatched
	expected   int64 // deliveries a loss-free run would have produced
	wireBytes  int64 // bytes put on the wire by all nodes, 28 B UDP/IP overhead included
	attempted  int64 // operations: datagrams on udp-saturate, the session itself elsewhere
	failed     int64 // operations that did not complete, see judgeSession

	lagP50ms, lagP99ms float64
	lagSamples         int
}

// meter brackets a timed section. ReadMemStats stops the world, so it sits
// outside the wall and cpu readings on both sides.
type meter struct {
	mallocs uint64
	cpu     time.Duration
	start   time.Time
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{mallocs: ms.Mallocs, cpu: cpuTime(), start: time.Now()}
}

func (m meter) stop(r *rep) {
	r.wall = time.Since(m.start)
	r.cpu = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.mallocs
}

func rusageSelf() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would surface as a zero metric, which the smoke test rejects.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusageSelf()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss in MB; the raw unit differs per OS (rusage_*.go).
func peakRSSMB() float64 {
	return float64(rusageSelf().Maxrss) * maxrssUnitBytes / 1e6
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setLags sorts lags (milliseconds) in place and fills the rep's percentiles.
func (r *rep) setLags(lagsMs []float64) {
	sort.Float64s(lagsMs)
	r.lagP50ms = percentile(lagsMs, 50)
	r.lagP99ms = percentile(lagsMs, 99)
	r.lagSamples = len(lagsMs)
}

// deliverySLO is the share of (receiver, packet) pairs a streaming session
// must deliver by the end of its drain to count as a completed operation.
// Gossip at fanout ln(n)+c misses a few pairs by design and FEC absorbs them,
// so single pairs are not operations; their share is the delivered_pct
// metric. Below the SLO the session as a whole has failed its viewers.
const deliverySLO = 0.99

// judgeSession counts a streaming repetition as one operation.
func (r *rep) judgeSession() {
	r.attempted = 1
	if float64(r.deliveries) < deliverySLO*float64(r.expected) {
		r.failed = 1
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd folds the timed repetitions into the end-to-end metrics: each is
// computed per repetition and reported as the median over repetitions. Host
// time spent computing is divided by the host's slowdown (hostspeed.go):
// set-up, wall clock and CPU time unless a stream clock paces the workload
// (its CPU goes to timers and syscalls, which the reference kernel does not
// follow), and lag where it is host time rather than simulated or paced time.
func endToEnd(sp *spec, setup time.Duration, reps []rep, slowdown float64) map[string]metric {
	col := func(f func(r rep) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return median(vals)
	}
	perDelivery := func(f func(r rep) float64) float64 {
		return col(func(r rep) float64 { return f(r) / float64(r.deliveries) })
	}
	scale, lagScale := slowdown, 1.0
	if sp.paced {
		scale = 1
	}
	if sp.hostLag {
		lagScale = slowdown
	}
	return map[string]metric{
		"setup_s":              {setup.Seconds() / scale, "s"},
		"wall_us_per_delivery": {perDelivery(func(r rep) float64 { return float64(r.wall.Nanoseconds()) / 1e3 }) / scale, "us"},
		"cpu_us_per_delivery":  {perDelivery(func(r rep) float64 { return float64(r.cpu.Nanoseconds()) / 1e3 }) / scale, "us"},
		"allocs_per_delivery":  {perDelivery(func(r rep) float64 { return float64(r.mallocs) }), "count"},
		"bytes_per_delivery":   {perDelivery(func(r rep) float64 { return float64(r.wireBytes) }), "B"},
		"delivered_pct":        {col(func(r rep) float64 { return 100 * float64(r.deliveries) / float64(r.expected) }), "%"},
		"lag_p50_ms":           {col(func(r rep) float64 { return r.lagP50ms }) / lagScale, "ms"},
		"lag_p99_ms":           {col(func(r rep) float64 { return r.lagP99ms }) / lagScale, "ms"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
	}
}
