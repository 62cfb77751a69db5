package obs

import "math"

// Quantile estimates the q-quantile of the observed distribution from
// the histogram's cumulative bucket counts, with the same semantics as
// Prometheus's histogram_quantile: the target rank is located in its
// bucket and the value is interpolated linearly between the bucket's
// bounds (the first bucket interpolates from 0, so negative observations
// are reported as if clamped to zero). If the rank falls in the +Inf
// overflow bucket, the highest finite bound is returned — the estimate
// saturates rather than inventing a value beyond the instrumented range.
//
// q is clamped to [0, 1]. An empty histogram, a nil receiver, or a NaN q
// returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || math.IsNaN(q) {
		return math.NaN()
	}
	total := h.hist.count.Load()
	if total == 0 {
		return math.NaN()
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)

	bounds := h.hist.buckets
	cum := 0.0
	for i, bound := range bounds {
		c := float64(h.hist.counts[i].Load())
		if cum+c >= rank && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if math.IsInf(bound, 1) {
				// An explicit +Inf bound: saturate at the bucket below.
				return lower
			}
			if math.IsInf(lower, -1) {
				// An explicit -Inf lower bound has no width to
				// interpolate over; report the upper bound.
				return bound
			}
			return lower + (bound-lower)*(rank-cum)/c
		}
		cum += c
	}
	// The rank lives in the implicit +Inf bucket: saturate at the highest
	// finite bound (NaN when there are no finite bounds at all).
	for i := len(bounds) - 1; i >= 0; i-- {
		if !math.IsInf(bounds[i], 0) {
			return bounds[i]
		}
	}
	return math.NaN()
}
