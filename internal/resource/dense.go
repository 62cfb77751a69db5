package resource

import (
	"math"
	"slices"
)

// Kinds is a sorted list of distinct resource kinds: the column order of
// dense rows, so that index order is name order. A network interns its
// NCPs' capacity kinds into one Kinds when it is built; capacities are
// rows over it, and a task's requirement is densified against it once per
// assignment. The map-based Vector stays the API and JSON boundary
// representation.
type Kinds []Kind

// Index returns the position of k in ks, or -1 when ks lacks it.
func (ks Kinds) Index(k Kind) int {
	if i, ok := slices.BinarySearch(ks, k); ok {
		return i
	}
	return -1
}

// DenseInto writes v's amounts into out, which must be zero and len(ks)
// long, and reports whether v has a positive amount of a kind ks lacks,
// which out cannot hold.
func (ks Kinds) DenseInto(out Dense, v Vector) (dropped bool) {
	for k, a := range v {
		if i := ks.Index(k); i >= 0 {
			out[i] = a
		} else if a > 0 {
			dropped = true
		}
	}
	return dropped
}

// Dense is a slice-backed resource vector: index i holds the amount of
// the kind at index i of a Kinds. All Dense values combined by the
// arithmetic below must be rows over the same Kinds.
type Dense []float64

// Add accumulates w into d in place; w must not be longer than d.
func (d Dense) Add(w Dense) {
	for i, a := range w {
		d[i] += a
	}
}

// RateDense returns min over kinds k with base[k]+extra[k] > 0 of
// capacity[k] / (base[k]+extra[k]): the service rate a capacity vector
// offers to the combined load of an existing base plus a candidate extra
// requirement. It computes the same set of divisions as the map-based
// rate arithmetic over base+extra, so results are bit-identical. All
// three vectors must be rows over the same Kinds, of equal length.
func RateDense(capacity, base, extra Dense) float64 {
	rate := math.Inf(1)
	for i, b := range base {
		demand := b + extra[i]
		if demand <= 0 {
			continue
		}
		if r := capacity[i] / demand; r < rate {
			rate = r
		}
	}
	return rate
}
