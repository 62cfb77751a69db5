// Package resource defines resource kinds and requirement/capacity vectors
// shared by the task-graph and computing-network models.
//
// A Vector maps a resource kind to an amount. For computation tasks the
// amount is the quantity of that resource consumed to process one data unit
// (e.g. CPU megacycles per image); for NCPs it is the capacity per second
// (e.g. MHz). Transport tasks and links use the single Bandwidth kind.
//
// Vector is the form of requirements, placement loads and every encoding.
// Held capacities are dense instead: rows of float64 over a sorted Kinds
// that a network interns once, when it is built (see Dense).
package resource

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies one resource type.
type Kind string

// Standard resource kinds used across the system. Scenarios may introduce
// their own kinds; nothing in the algorithms depends on this list.
const (
	CPU       Kind = "cpu"
	Memory    Kind = "memory"
	Bandwidth Kind = "bandwidth"
)

// Vector maps resource kinds to amounts. The nil map is a valid empty
// vector (a task that consumes nothing, or an element with no capacity).
type Vector map[Kind]float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	for k, a := range v {
		out[k] = a
	}
	return out
}

// Get returns the amount for kind k, or zero if absent.
func (v Vector) Get(k Kind) float64 { return v[k] }

// Add accumulates w into v in place and returns v. Missing keys are created.
func (v Vector) Add(w Vector) Vector {
	for k, a := range w {
		v[k] += a
	}
	return v
}

// AddScaled accumulates s*w into v in place and returns v.
func (v Vector) AddScaled(w Vector, s float64) Vector {
	for k, a := range w {
		v[k] += a * s
	}
	return v
}

// Sub subtracts w from v in place and returns v.
func (v Vector) Sub(w Vector) Vector {
	for k, a := range w {
		v[k] -= a
	}
	return v
}

// IsZero reports whether every component of v is zero.
func (v Vector) IsZero() bool {
	for _, a := range v {
		if a != 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component of v is a non-negative
// number: a negative or NaN amount fails.
func (v Vector) NonNegative() bool {
	for _, a := range v {
		if !(a >= 0) {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have the same non-zero components.
func (v Vector) Equal(w Vector) bool {
	for k, a := range v {
		if w[k] != a {
			return false
		}
	}
	for k, a := range w {
		if v[k] != a {
			return false
		}
	}
	return true
}

// String renders the vector with kinds in sorted order, e.g.
// "{cpu: 9880, memory: 12}".
func (v Vector) String() string {
	if len(v) == 0 {
		return "{}"
	}
	kinds := make([]string, 0, len(v))
	for k := range v {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range kinds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %g", k, v[Kind(k)])
	}
	b.WriteByte('}')
	return b.String()
}

// Kinds returns the sorted list of kinds present in v with non-zero amounts.
func (v Vector) Kinds() []Kind {
	kinds := make([]Kind, 0, len(v))
	for k, a := range v {
		if a != 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}
