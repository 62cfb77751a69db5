// Package avail computes the availability metrics SPARCLE's QoE loop needs
// (§IV.C–D): the probability that at least one of an application's task
// assignment paths is working (Best-Effort availability) and the
// probability that the aggregate rate of the working paths meets a minimum
// (Guaranteed-Rate min-rate availability, eq. (7)). Network elements fail
// independently with known probabilities, and paths may share elements, so
// path failures are correlated.
//
// Both analyses are exact and read one up-set table: for every subset of
// paths, the probability that all of them are up. At-least-one sums it by
// inclusion–exclusion; min-rate turns it into the probability of each
// exact set of working paths. The work is exponential only in the number
// of paths, which MaxPaths caps; any number of elements, shared or not,
// costs a product term per element.
package avail

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Path is one task assignment path for availability purposes: the set of
// network elements that must all be up for the path to work, and the
// processing rate the path contributes when it is up. Element ids are
// opaque; the scheduler uses placement.Element values.
type Path struct {
	Elements []int
	Rate     float64
}

// FailProbs maps element ids to independent failure probabilities.
// Elements absent from the map never fail.
type FailProbs map[int]float64

// Validate checks that every probability is within [0, 1].
func (fp FailProbs) Validate() error {
	for e, p := range fp {
		if err := checkProb(e, p); err != nil {
			return err
		}
	}
	return nil
}

func checkProb(e int, p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("avail: element %d has invalid failure probability %v", e, p)
	}
	return nil
}

// validateOn is Validate restricted to the elements the paths use — the
// only probabilities an analysis of those paths reads. The network-wide
// map holds thousands of entries on a large mesh; an admission's paths
// touch a handful.
func (fp FailProbs) validateOn(paths []Path) error {
	for _, path := range paths {
		for _, e := range path.Elements {
			if err := checkProb(e, fp[e]); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxPaths is the most paths one analysis accepts. The up-set table
// holds 2^P entries and the min-rate transform costs P·2^P, so the cap
// bounds the work one admission can ask for under the scheduler lock;
// the scheduler's default is 4 paths.
const MaxPaths = 8

// ErrTooLarge is returned by the analyses when they are given more than
// MaxPaths paths.
var ErrTooLarge = errors.New("avail: instance too large for exact analysis")

// AtLeastOne returns the exact probability that at least one path works,
// accounting for arbitrary element overlap via inclusion–exclusion over
// path subsets: P(∪ A_p) = Σ_{T≠∅} (-1)^{|T|+1} U_T, where U_T is the
// up-set probability of T (see upSets).
func AtLeastOne(paths []Path, fp FailProbs) (float64, error) {
	if err := fp.validateOn(paths); err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, nil
	}
	if len(paths) > MaxPaths {
		return 0, fmt.Errorf("%w: %d paths", ErrTooLarge, len(paths))
	}
	u := upSets(paths, fp)
	total := 0.0
	for t := 1; t < len(u); t++ {
		if bits.OnesCount(uint(t))%2 == 1 {
			total += u[t]
		} else {
			total -= u[t]
		}
	}
	return clampProb(total), nil
}

// MinRate returns the exact min-rate availability P(sum of rates of
// working paths >= minRate), eq. (7). A superset Möbius transform turns
// the up-set table into P(exactly the paths in S up) for every subset S,
// and the subsets whose rates reach minRate are summed.
func MinRate(paths []Path, fp FailProbs, minRate float64) (float64, error) {
	if err := fp.validateOn(paths); err != nil {
		return 0, err
	}
	if minRate <= 0 {
		return 1, nil
	}
	if len(paths) == 0 {
		return 0, nil
	}
	if len(paths) > MaxPaths {
		return 0, fmt.Errorf("%w: %d paths", ErrTooLarge, len(paths))
	}
	u := upSets(paths, fp)
	// In place, u[S] becomes Σ_{T ⊇ S} (-1)^{|T|-|S|} U_T = P(exactly S up).
	for p := range paths {
		bit := 1 << p
		for s := range u {
			if s&bit == 0 {
				u[s] -= u[s|bit]
			}
		}
	}
	total := 0.0
	for s, exactly := range u {
		rate := 0.0
		for r := s; r != 0; r &= r - 1 {
			rate += paths[bits.TrailingZeros(uint(r))].Rate
		}
		if rate >= minRate-1e-12 {
			total += exactly
		}
	}
	return clampProb(total), nil
}

// upSets returns the up-set table: for every path subset T (bit p of the
// index set when path p is in T), U_T = P(every path in T is up), the
// product of (1 - p_e) over the fallible elements on T's paths, multiplied
// in ascending element-id order. U_∅ = 1. Paths are wide bitsets over a
// dense index of the sorted fallible element ids, so the element count is
// unbounded.
func upSets(paths []Path, fp FailProbs) []float64 {
	n := 0
	for _, p := range paths {
		n += len(p.Elements)
	}
	ids := make([]int, 0, n)
	for _, p := range paths {
		for _, e := range p.Elements {
			if fp[e] != 0 {
				ids = append(ids, e)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	up := make([]float64, len(ids))
	for i, e := range ids {
		up[i] = 1 - fp[e]
	}
	words := (len(ids) + 63) / 64
	masks := make([]uint64, len(paths)*words) // path p's words at [p*words, (p+1)*words)
	for p, path := range paths {
		for _, e := range path.Elements {
			if i, ok := slices.BinarySearch(ids, e); ok {
				masks[p*words+i/64] |= 1 << (i % 64)
			}
		}
	}
	u := make([]float64, 1<<len(paths))
	for t := range u {
		prob := 1.0
		for w := 0; w < words; w++ {
			union := uint64(0)
			for r := t; r != 0; r &= r - 1 {
				union |= masks[bits.TrailingZeros(uint(r))*words+w]
			}
			for ; union != 0; union &= union - 1 {
				prob *= up[w*64+bits.TrailingZeros64(union)]
			}
		}
		u[t] = prob
	}
	return u
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// MinRateAuto returns MinRate; samples and rng are ignored.
//
// Deprecated: call MinRate. MinRateAuto remains only for the benchmark's
// layer probe (benchmark/probe.go), and goes when that caller does.
func MinRateAuto(paths []Path, fp FailProbs, minRate float64, samples int, rng *rand.Rand) (float64, error) {
	return MinRate(paths, fp, minRate)
}
