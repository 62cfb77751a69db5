package resource

import "math"

// Interner assigns small dense integer indices to resource kinds, so hot
// evaluation loops can trade map lookups for slice indexing. The map-based
// Vector remains the API and JSON boundary representation; models convert
// to Dense once at build/snapshot time and never on the hot path.
//
// Index assignment is first-come-first-served; InternVector interns kinds
// in sorted order so that building the same model always yields the same
// indices. An Interner is not safe for concurrent mutation, but read-only
// use (Dense, Index, KindAt) after the universe is frozen is safe from any
// number of goroutines.
type Interner struct {
	kinds []Kind
	index map[Kind]int
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{index: map[Kind]int{}}
}

// Reset empties the interner for a new universe, keeping its memory.
func (in *Interner) Reset() {
	in.kinds = in.kinds[:0]
	clear(in.index)
}

// Intern returns the dense index of k, assigning the next free index on
// first use.
func (in *Interner) Intern(k Kind) int {
	if i, ok := in.index[k]; ok {
		return i
	}
	i := len(in.kinds)
	in.kinds = append(in.kinds, k)
	in.index[k] = i
	return i
}

// InternVector interns every kind of v with a non-zero amount, in sorted
// order for deterministic index assignment.
func (in *Interner) InternVector(v Vector) {
	for _, k := range v.Kinds() {
		in.Intern(k)
	}
}

// Index returns the dense index of k and whether it has been interned.
func (in *Interner) Index(k Kind) (int, bool) {
	i, ok := in.index[k]
	return i, ok
}

// KindAt returns the kind with dense index i.
func (in *Interner) KindAt(i int) Kind { return in.kinds[i] }

// Len returns the number of interned kinds (the length of every Dense
// vector produced by this interner).
func (in *Interner) Len() int { return len(in.kinds) }

// Dense projects v onto the interner's current universe: out[i] is the
// amount of kind KindAt(i). Kinds of v that have not been interned are
// dropped — by construction the universe covers every kind any demand can
// reference, so dropped capacity kinds can never enter a rate computation.
func (in *Interner) Dense(v Vector) Dense {
	return in.DenseInto(make(Dense, len(in.kinds)), v)
}

// DenseInto is Dense writing into out, which must be zero and Len() long:
// callers that densify many vectors carve them from one backing array.
func (in *Interner) DenseInto(out Dense, v Vector) Dense {
	for k, a := range v {
		if i, ok := in.index[k]; ok {
			out[i] = a
		}
	}
	return out
}

// Dense is a slice-backed resource vector: index i holds the amount of the
// kind an Interner assigned index i. All Dense values combined by the
// arithmetic below must come from the same interner.
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
func (d Dense) Vector(in *Interner) Vector {
	out := Vector{}
	for i, a := range d {
		if a != 0 {
			out[in.KindAt(i)] = a
		}
	}
	return out
}

// RateDense returns min over kinds k with base[k]+extra[k] > 0 of
// capacity[k] / (base[k]+extra[k]): the service rate a capacity vector
// offers to the combined load of an existing base plus a candidate extra
// requirement. It is the dense equivalent of the map-based rate arithmetic
// (resource.DivMin over base+extra) and computes the exact same set of
// divisions, so results are bit-identical. All three vectors must come
// from the same interner; a shorter vector is treated as zero-padded.
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
