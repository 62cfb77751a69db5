package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestPoissonMean: the empirical mean inter-arrival time of a Poisson
// process must match 1/rate, and the gap distribution must be memoryless
// (CV ~ 1).
func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := NewPoisson(50, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		gap := p.Next().Seconds()
		if gap < 0 {
			t.Fatalf("negative gap %v", gap)
		}
		sum += gap
		sumSq += gap * gap
	}
	mean := sum / n
	if math.Abs(mean-0.02) > 0.001 {
		t.Errorf("mean gap = %v, want ~0.02", mean)
	}
	cv := math.Sqrt(sumSq/n-mean*mean) / mean
	if math.Abs(cv-1) > 0.05 {
		t.Errorf("coefficient of variation = %v, want ~1 (exponential)", cv)
	}
}

func TestPoissonValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rate := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewPoisson(rate, rng); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

// TestBoundedPareto checks support, the heavy tail, and the analytic
// mean for alpha=1.5 on [1, 100]:
//
//	E[X] = lo^a/(1-(lo/hi)^a) * a/(a-1) * (1/lo^(a-1) - 1/hi^(a-1))
func TestBoundedPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const alpha, lo, hi = 1.5, 1.0, 100.0
	const n = 200000
	var sum float64
	big := 0
	for i := 0; i < n; i++ {
		x := BoundedPareto(rng, alpha, lo, hi)
		if x < lo || x > hi {
			t.Fatalf("draw %v outside [%v, %v]", x, lo, hi)
		}
		sum += x
		if x > 10 {
			big++
		}
	}
	la := math.Pow(lo, alpha)
	want := la / (1 - math.Pow(lo/hi, alpha)) * alpha / (alpha - 1) *
		(1/math.Pow(lo, alpha-1) - 1/math.Pow(hi, alpha-1))
	mean := sum / n
	if math.Abs(mean-want) > want*0.05 {
		t.Errorf("mean = %v, want ~%v", mean, want)
	}
	// P(X > 10) for bounded Pareto ~ (lo/10)^alpha scaled by the bound
	// normalization ~ 3%; a light-tailed distribution would give ~0.
	frac := float64(big) / n
	if frac < 0.01 || frac > 0.1 {
		t.Errorf("tail fraction P(X>10) = %v, want a few percent", frac)
	}

	// Degenerate parameters collapse to lo without panicking.
	if got := BoundedPareto(rng, 0, 1, 10); got != 1 {
		t.Errorf("alpha=0 -> %v, want lo", got)
	}
	if got := BoundedPareto(rng, 1.5, 2, 1); got != 2 {
		t.Errorf("hi<lo -> %v, want lo", got)
	}
}
