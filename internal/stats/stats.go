// Package stats provides the small statistical toolkit the experiment
// harness uses: means, percentiles, and empirical CDFs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between order statistics. It copies and sorts the
// input. An empty slice yields NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical CDF: P(X <= Value) = Prob.
type CDFPoint struct {
	Value float64
	Prob  float64
}

// CDF returns the empirical CDF of xs as one point per sample (sorted by
// value). The input is not modified.
func CDF(xs []float64) []CDFPoint {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Prob: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// Summary bundles the headline statistics of a sample.
type Summary struct {
	N             int
	Mean          float64
	P25, P50, P75 float64
	Min, Max      float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs)}
	if len(xs) == 0 {
		s.P25, s.P50, s.P75 = math.NaN(), math.NaN(), math.NaN()
		s.Min, s.Max = math.NaN(), math.NaN()
		return s
	}
	s.P25 = Percentile(xs, 25)
	s.P50 = Percentile(xs, 50)
	s.P75 = Percentile(xs, 75)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p25=%.4g p50=%.4g p75=%.4g min=%.4g max=%.4g",
		s.N, s.Mean, s.P25, s.P50, s.P75, s.Min, s.Max)
}
