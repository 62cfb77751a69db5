package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantHist returns a fresh histogram series in a throwaway registry.
func quantHist(t *testing.T, buckets []float64) *Histogram {
	t.Helper()
	return NewRegistry().Histogram("q_test_seconds", buckets)
}

// TestQuantileUniform feeds U(0, 1) samples into fine uniform buckets;
// the estimator must recover the analytic quantiles within one bucket
// width.
func TestQuantileUniform(t *testing.T) {
	buckets := make([]float64, 100)
	for i := range buckets {
		buckets[i] = float64(i+1) / 100
	}
	h := quantHist(t, buckets)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		h.Observe(rng.Float64())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		if math.Abs(got-q) > 0.02 {
			t.Errorf("uniform q%.3f = %.4f, want ~%.4f", q, got, q)
		}
	}
}

// TestQuantileExponential checks a heavy-ish tail against the analytic
// inverse CDF on log-spaced buckets (the shape SpanBuckets uses).
func TestQuantileExponential(t *testing.T) {
	h := quantHist(t, SpanBuckets)
	rng := rand.New(rand.NewSource(7))
	const mean = 0.01 // 10ms
	n := 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = rng.ExpFloat64() * mean
		h.Observe(samples[i])
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := samples[int(q*float64(n))-1]
		// Bucket interpolation on 1/1.5/2/3/5/7 spacing is within ~40%.
		if got < want*0.6 || got > want*1.6 {
			t.Errorf("exp q%.3f = %.5f, want ~%.5f (empirical)", q, got, want)
		}
	}
}

// TestQuantileBimodal pins exact interpolation arithmetic on a known
// two-spike distribution.
func TestQuantileBimodal(t *testing.T) {
	h := quantHist(t, []float64{1, 2, 3, 4})
	// 75 observations in (1, 2], 25 in (3, 4].
	for i := 0; i < 75; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 25; i++ {
		h.Observe(3.5)
	}
	// p50: rank 50 of 75 in bucket (1,2] -> 1 + 50/75.
	if got, want := h.Quantile(0.5), 1+50.0/75.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// p90: rank 90, 15 into the 25 of bucket (3,4] -> 3 + 15/25.
	if got, want := h.Quantile(0.9), 3.6; math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 = %v, want %v", got, want)
	}
	// p100 is the top of the occupied range.
	if got := h.Quantile(1); math.Abs(got-4) > 1e-9 {
		t.Errorf("p100 = %v, want 4", got)
	}
}

// TestQuantileEdges covers the degenerate inputs.
func TestQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram quantile not NaN")
	}
	h := quantHist(t, []float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Error("NaN q not NaN")
	}

	// Overflow: every observation beyond the highest bound saturates.
	h.Observe(100)
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want highest bound 2", got)
	}

	// Clamping of out-of-range q.
	h2 := quantHist(t, []float64{1, 2})
	h2.Observe(0.5)
	if got := h2.Quantile(-1); math.IsNaN(got) {
		t.Error("q<0 returned NaN")
	}
	if got := h2.Quantile(2); got != h2.Quantile(1) {
		t.Errorf("q>1 = %v, want clamp to q=1", got)
	}

	// Explicit +Inf bound saturates at the bucket below it.
	h3 := quantHist(t, []float64{1, math.Inf(1)})
	h3.Observe(50)
	if got := h3.Quantile(0.9); got != 1 {
		t.Errorf("explicit +Inf bucket quantile = %v, want 1", got)
	}
}
