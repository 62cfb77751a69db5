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

// Clone returns an independent copy of d.
func (d Dense) Clone() Dense { return append(Dense(nil), d...) }

// Add accumulates w into d in place; w must not be longer than d.
func (d Dense) Add(w Dense) {
	for i, a := range w {
		d[i] += a
	}
}

// AddScaled accumulates s*w into d in place; w must not be longer than d.
func (d Dense) AddScaled(w Dense, s float64) {
	for i, a := range w {
		d[i] += a * s
	}
}

// IsZero reports whether every component of d is zero.
func (d Dense) IsZero() bool {
	for _, a := range d {
		if a != 0 {
			return false
		}
	}
	return true
}

// Vector converts d back to the map representation (non-zero components
// only), for boundary code and debugging.
func (d Dense) Vector(ks Kinds) Vector {
	out := Vector{}
	for i, a := range d {
		if a != 0 {
			out[ks[i]] = a
		}
	}
	return out
}

// RateDense returns min over kinds k with base[k]+extra[k] > 0 of
// capacity[k] / (base[k]+extra[k]): the service rate a capacity vector
// offers to the combined load of an existing base plus a candidate extra
// requirement. It is the dense equivalent of the map-based rate arithmetic
// (resource.DivMin over base+extra) and computes the exact same set of
// divisions, so results are bit-identical. All three vectors must be rows
// over the same Kinds; a shorter vector is treated as zero-padded.
func RateDense(capacity, base, extra Dense) float64 {
	rate := math.Inf(1)
	if len(capacity) == len(base) && len(base) == len(extra) {
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
	n := len(base)
	if len(extra) > n {
		n = len(extra)
	}
	for i := 0; i < n; i++ {
		var demand float64
		if i < len(base) {
			demand = base[i]
		}
		if i < len(extra) {
			demand += extra[i]
		}
		if demand <= 0 {
			continue
		}
		var c float64
		if i < len(capacity) {
			c = capacity[i]
		}
		if r := c / demand; r < rate {
			rate = r
		}
	}
	return rate
}
