package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns (q1, median, q3) with the exclusive method of Python's
// statistics.quantiles(xs, n=4), the rule the acceptance spread is stated
// in; for fewer than two values all three are the single value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Exclusive method: position i*(n+1)/4 in 1-based ranks.
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, len(s)-1))
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// ratio is a/b, 0 when b is 0: per-layer ratios on a bypassed layer
// report 0 rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dueLatency is the open-loop latency of a request that was due at due
// and whose response arrived at done: waiting for a free connection counts.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// lateness is how late the generator dispatched an arrival that was due
// at due; an early wake-up is not lateness.
func lateness(due, dispatched time.Time) time.Duration {
	return max(dispatched.Sub(due), 0)
}
