package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	tests := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile sorted its input")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile must be NaN")
	}
	// Clamping.
	if got := Percentile(xs, -5); got != 1 {
		t.Fatalf("clamped low = %v", got)
	}
	if got := Percentile(xs, 150); got != 4 {
		t.Fatalf("clamped high = %v", got)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Value != 1 || math.Abs(pts[0].Prob-1.0/3) > 1e-12 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[2].Value != 3 || pts[2].Prob != 1 {
		t.Fatalf("pts[2] = %+v", pts[2])
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.P50 != 2.5 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.P50) {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCDFIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		pts := CDF(xs)
		prevV, prevP := math.Inf(-1), 0.0
		for _, pt := range pts {
			if pt.Value < prevV || pt.Prob < prevP || pt.Prob > 1 {
				return false
			}
			prevV, prevP = pt.Value, pt.Prob
		}
		return pts[len(pts)-1].Prob == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
