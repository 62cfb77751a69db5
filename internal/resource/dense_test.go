package resource

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestKindsIndex(t *testing.T) {
	ks := Kinds{CPU, "gpu", Memory}
	for i, k := range ks {
		if got := ks.Index(k); got != i {
			t.Fatalf("Index(%s) = %d, want %d", k, got, i)
		}
	}
	for _, k := range []Kind{Bandwidth, "aa", "zz", ""} {
		if got := ks.Index(k); got != -1 {
			t.Fatalf("Index(%q) = %d for a kind ks lacks", k, got)
		}
	}
	if (Kinds(nil)).Index(CPU) != -1 {
		t.Fatal("empty Kinds found a kind")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	ks := Kinds{CPU, Memory}
	v := Vector{CPU: 3, Memory: 0.5}
	d := make(Dense, len(ks))
	if ks.DenseInto(d, v) {
		t.Fatal("DenseInto dropped a kind ks holds")
	}
	if !slices.Equal(d, Dense{3, 0.5}) {
		t.Fatalf("DenseInto(%v) = %v", v, d)
	}
	// Kinds outside ks are dropped, and reported when positive.
	d2 := make(Dense, len(ks))
	if !ks.DenseInto(d2, Vector{CPU: 1, "gpu": 9}) {
		t.Fatal("DenseInto did not report a positive amount it dropped")
	}
	if !slices.Equal(d2, Dense{1, 0}) {
		t.Fatalf("projection kept an outside kind: %v", d2)
	}
	if ks.DenseInto(make(Dense, len(ks)), Vector{CPU: 1, "gpu": 0}) {
		t.Fatal("DenseInto reported a zero amount it dropped")
	}
}

func TestDenseArithmetic(t *testing.T) {
	d := Dense{1, 2, 3}
	d.Add(Dense{1, 1, 1})
	if want := (Dense{2, 3, 4}); !slices.Equal(d, want) {
		t.Fatalf("d = %v, want %v", d, want)
	}
}

// rateWithMaps is the map-based reference: min over kinds of
// cap/(base+extra), demand-positive kinds only.
func rateWithMaps(cap, base, extra Vector) float64 {
	rate := math.Inf(1)
	consider := func(k Kind) {
		demand := base[k] + extra[k]
		if demand <= 0 {
			return
		}
		if r := cap[k] / demand; r < rate {
			rate = r
		}
	}
	for k := range base {
		consider(k)
	}
	for k := range extra {
		if _, seen := base[k]; !seen {
			consider(k)
		}
	}
	return rate
}

func TestRateDenseMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kinds := []Kind{CPU, Memory, Bandwidth, "gpu", "disk"}
	randVec := func() Vector {
		v := Vector{}
		for _, k := range kinds {
			switch rng.Intn(3) {
			case 0:
				v[k] = rng.Float64() * 10
			case 1:
				v[k] = 0
			}
		}
		return v
	}
	for trial := 0; trial < 500; trial++ {
		capV, base, extra := randVec(), randVec(), randVec()
		ks := Kinds(append(base.Kinds(), extra.Kinds()...))
		slices.Sort(ks)
		ks = slices.Compact(ks)
		dense := func(v Vector) Dense {
			d := make(Dense, len(ks))
			ks.DenseInto(d, v)
			return d
		}
		got := RateDense(dense(capV), dense(base), dense(extra))
		want := rateWithMaps(capV, base, extra)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: dense %v != map %v", trial, got, want)
		}
	}
}
