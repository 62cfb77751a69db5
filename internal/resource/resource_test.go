package resource

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorClone(t *testing.T) {
	v := Vector{CPU: 3, Memory: 5}
	w := v.Clone()
	w[CPU] = 99
	if v[CPU] != 3 {
		t.Fatalf("Clone aliases original: v[CPU]=%v", v[CPU])
	}
	if got := Vector(nil).Clone(); got != nil {
		t.Fatalf("nil.Clone() = %v, want nil", got)
	}
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{CPU: 1, Memory: 2}
	v.Add(Vector{CPU: 2, Bandwidth: 4})
	want := Vector{CPU: 3, Memory: 2, Bandwidth: 4}
	if !v.Equal(want) {
		t.Fatalf("Add: got %v, want %v", v, want)
	}
	v.Sub(Vector{CPU: 3})
	if v[CPU] != 0 {
		t.Fatalf("Sub: got %v", v[CPU])
	}
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{CPU: 10}
	v.AddScaled(Vector{CPU: 2, Memory: 3}, -2)
	if v[CPU] != 6 || v[Memory] != -6 {
		t.Fatalf("AddScaled: got %v", v)
	}
}

func TestVectorPredicates(t *testing.T) {
	if !(Vector{}).IsZero() || !(Vector{CPU: 0}).IsZero() {
		t.Fatal("empty/zero vectors must be IsZero")
	}
	if (Vector{CPU: 1}).IsZero() {
		t.Fatal("non-zero vector reported zero")
	}
	if !(Vector{CPU: 0}).NonNegative() || (Vector{CPU: -1}).NonNegative() {
		t.Fatal("NonNegative wrong")
	}
	if (Vector{CPU: 1, Memory: math.NaN()}).NonNegative() {
		t.Fatal("NonNegative accepted a NaN amount")
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{CPU: 1, Memory: 0}
	b := Vector{CPU: 1}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("vectors differing only by explicit zeros must be Equal")
	}
	c := Vector{CPU: 2}
	if a.Equal(c) {
		t.Fatal("different vectors reported Equal")
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{Memory: 2, CPU: 1}
	if got, want := v.String(), "{cpu: 1, memory: 2}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (Vector{}).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestVectorKinds(t *testing.T) {
	v := Vector{Memory: 2, CPU: 1, Bandwidth: 0}
	kinds := v.Kinds()
	if len(kinds) != 2 || kinds[0] != CPU || kinds[1] != Memory {
		t.Fatalf("Kinds() = %v", kinds)
	}
}

// randomVector generates small vectors for property tests.
func randomVector(r *rand.Rand) Vector {
	kinds := []Kind{CPU, Memory, Bandwidth}
	v := Vector{}
	for _, k := range kinds {
		if r.Intn(2) == 0 {
			v[k] = math.Round(r.Float64()*100) / 4
		}
	}
	return v
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r), randomVector(r)
		left := a.Clone().Add(b)
		right := b.Clone().Add(a)
		if left == nil {
			left = Vector{}
		}
		if right == nil {
			right = Vector{}
		}
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubInvertsAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r), randomVector(r)
		got := a.Clone().Add(b).Sub(b)
		if got == nil {
			got = Vector{}
		}
		return got.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
