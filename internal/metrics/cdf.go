package metrics

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution: sorted sample values with
// their cumulative fractions.
type CDF struct {
	// Values are the sorted sample values (may include +Inf for Never).
	Values []float64
	// N is the sample count.
	N int
}

// NewCDF builds an empirical CDF from samples (not modified).
func NewCDF(samples []float64) CDF {
	vs := make([]float64, len(samples))
	copy(vs, samples)
	sort.Float64s(vs)
	return CDF{Values: vs, N: len(vs)}
}

// MergeCDFs merges empirical CDFs into one over the union of their samples —
// the exact CDF of the pooled population (sweep replicas merge their per-node
// lag distributions this way).
func MergeCDFs(cdfs ...CDF) CDF {
	total := 0
	for _, c := range cdfs {
		total += c.N
	}
	vs := make([]float64, 0, total)
	for _, c := range cdfs {
		vs = append(vs, c.Values...)
	}
	sort.Float64s(vs)
	return CDF{Values: vs, N: len(vs)}
}

// FractionAtOrBelow returns the fraction of samples <= x.
func (c CDF) FractionAtOrBelow(x float64) float64 {
	if c.N == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.Values, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(c.N)
}

// ValueAtPercentile returns the smallest sample value v such that at least
// pct (in [0,100]) of the samples are <= v. Returns NaN for empty samples.
func (c CDF) ValueAtPercentile(pct float64) float64 {
	if c.N == 0 {
		return math.NaN()
	}
	if pct <= 0 {
		return c.Values[0]
	}
	idx := int(math.Ceil(pct/100*float64(c.N))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= c.N {
		idx = c.N - 1
	}
	return c.Values[idx]
}

// FiniteMax returns the largest finite sample, or 0 if none.
func (c CDF) FiniteMax() float64 {
	for i := c.N - 1; i >= 0; i-- {
		if !math.IsInf(c.Values[i], 1) {
			return c.Values[i]
		}
	}
	return 0
}

// Points samples the CDF at the given x values, returning the cumulative
// percentage (0-100) at each.
func (c CDF) Points(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * c.FractionAtOrBelow(x)
	}
	return out
}

// CountInf returns how many samples are +Inf: the nodes whose lag was
// Never (see Seconds).
func CountInf(samples []float64) int {
	n := 0
	for _, v := range samples {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// Mean returns the mean of the finite samples (NaN if none).
func Mean(samples []float64) float64 {
	var sum float64
	var n int
	for _, v := range samples {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
