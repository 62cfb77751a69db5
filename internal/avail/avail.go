// Package avail computes the availability metrics SPARCLE's QoE loop needs
// (§IV.C–D): the probability that at least one of an application's task
// assignment paths is working (Best-Effort availability) and the
// probability that the aggregate rate of the working paths meets a minimum
// (Guaranteed-Rate min-rate availability, eq. (7)). Network elements fail
// independently with known probabilities, and paths may share elements, so
// path failures are correlated.
//
// Exact results use inclusion–exclusion over path subsets (at-least-one)
// and conditioning on the states of shared elements (min-rate); both are
// exponential only in the number of paths and shared elements, which the
// scheduler keeps small. Monte-Carlo estimators cover larger instances.
package avail

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// ErrTooLarge is returned by the exact analyses when the instance exceeds
// the exponential-work guards; callers should fall back to Monte Carlo.
var ErrTooLarge = errors.New("avail: instance too large for exact analysis")

const (
	maxExactPaths  = 20
	maxExactShared = 16
)

// AtLeastOne returns the exact probability that at least one path works,
// accounting for arbitrary element overlap via inclusion–exclusion over
// path subsets: P(∪ A_p) = Σ_{S≠∅} (-1)^{|S|+1} Π_{e ∈ union(S)} (1-pf_e).
func AtLeastOne(paths []Path, fp FailProbs) (float64, error) {
	if err := fp.validateOn(paths); err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, nil
	}
	if len(paths) > maxExactPaths {
		return 0, fmt.Errorf("%w: %d paths", ErrTooLarge, len(paths))
	}
	idx, masks := elementMasks(paths, fp)
	if len(idx) > 64 {
		return 0, fmt.Errorf("%w: %d fallible elements", ErrTooLarge, len(idx))
	}
	up := make([]float64, len(idx)) // per-element up probability
	for e, i := range idx {
		up[i] = 1 - fp[e]
	}
	total := 0.0
	for s := 1; s < 1<<len(paths); s++ {
		union := uint64(0)
		bits := 0
		for p := 0; p < len(paths); p++ {
			if s&(1<<p) != 0 {
				union |= masks[p]
				bits++
			}
		}
		prob := probAllUp(union, up)
		if bits%2 == 1 {
			total += prob
		} else {
			total -= prob
		}
	}
	return clampProb(total), nil
}

// MinRate returns the exact min-rate availability P(sum of rates of
// working paths >= minRate), eq. (7). It conditions on the joint state of
// the shared elements (those on more than one path), under which paths are
// independent, and enumerates the qualifying path subsets.
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
	if len(paths) > maxExactPaths {
		return 0, fmt.Errorf("%w: %d paths", ErrTooLarge, len(paths))
	}
	idx, masks := elementMasks(paths, fp)
	if len(idx) > 64 {
		return 0, fmt.Errorf("%w: %d fallible elements", ErrTooLarge, len(idx))
	}
	// Shared elements appear in at least two path masks.
	counts := make([]int, len(idx))
	for _, m := range masks {
		for i := 0; i < len(idx); i++ {
			if m&(1<<i) != 0 {
				counts[i]++
			}
		}
	}
	var shared []int // bit positions
	for i, c := range counts {
		if c >= 2 {
			shared = append(shared, i)
		}
	}
	if len(shared) > maxExactShared {
		return 0, fmt.Errorf("%w: %d shared elements", ErrTooLarge, len(shared))
	}
	up := make([]float64, len(idx))
	for e, i := range idx {
		up[i] = 1 - fp[e]
	}
	// Exclusive up-probability per path: product over its non-shared
	// elements.
	sharedMask := uint64(0)
	for _, i := range shared {
		sharedMask |= 1 << i
	}
	exclUp := make([]float64, len(paths))
	for p, m := range masks {
		exclUp[p] = probAllUp(m&^sharedMask, up)
	}

	total := 0.0
	for state := 0; state < 1<<len(shared); state++ {
		// stateMask: shared elements that are UP in this state.
		stateMask := uint64(0)
		stateProb := 1.0
		for bi, i := range shared {
			if state&(1<<bi) != 0 {
				stateMask |= 1 << i
				stateProb *= up[i]
			} else {
				stateProb *= 1 - up[i]
			}
		}
		if stateProb == 0 {
			continue
		}
		// Conditional up-probability of each path.
		q := make([]float64, len(paths))
		for p, m := range masks {
			if m&sharedMask&^stateMask != 0 {
				q[p] = 0 // a shared element of p is down
			} else {
				q[p] = exclUp[p]
			}
		}
		total += stateProb * probRateAtLeast(paths, q, minRate)
	}
	return clampProb(total), nil
}

// probRateAtLeast returns P(sum over up paths of rate >= minRate) for
// independent Bernoulli paths with up-probabilities q. This is the subset
// enumeration the paper derives from the subset-sum formulation.
func probRateAtLeast(paths []Path, q []float64, minRate float64) float64 {
	total := 0.0
	n := len(paths)
	for s := 0; s < 1<<n; s++ {
		rate := 0.0
		prob := 1.0
		for p := 0; p < n; p++ {
			if s&(1<<p) != 0 {
				rate += paths[p].Rate
				prob *= q[p]
			} else {
				prob *= 1 - q[p]
			}
		}
		if prob == 0 {
			continue
		}
		if rate >= minRate-1e-12 {
			total += prob
		}
	}
	return total
}

// elementMasks assigns bit positions to the distinct fallible elements
// across all paths (at most 64 supported by the exact analyses; beyond
// that, elements with zero failure probability are already excluded and
// larger instances should use Monte Carlo) and returns each path's mask.
func elementMasks(paths []Path, fp FailProbs) (map[int]int, []uint64) {
	// Dedup each path's element list once and reuse the set in both
	// passes instead of recomputing it per loop.
	elems := make([][]int, len(paths))
	for pi, p := range paths {
		elems[pi] = distinct(p.Elements)
	}
	idx := map[int]int{}
	var order []int
	for _, es := range elems {
		for _, e := range es {
			if fp[e] == 0 {
				continue
			}
			if _, ok := idx[e]; !ok {
				idx[e] = 0
				order = append(order, e)
			}
		}
	}
	sort.Ints(order)
	for i, e := range order {
		idx[e] = i
	}
	masks := make([]uint64, len(paths))
	for pi, es := range elems {
		for _, e := range es {
			if i, ok := idx[e]; ok && i < 64 {
				masks[pi] |= 1 << i
			}
		}
	}
	return idx, masks
}

func probAllUp(mask uint64, up []float64) float64 {
	prob := 1.0
	for i := 0; i < len(up) && i < 64; i++ {
		if mask&(1<<i) != 0 {
			prob *= up[i]
		}
	}
	return prob
}

func distinct(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
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

// MonteCarloAtLeastOne estimates AtLeastOne by sampling element states.
func MonteCarloAtLeastOne(paths []Path, fp FailProbs, samples int, rng *rand.Rand) float64 {
	return monteCarlo(paths, fp, samples, rng, func(upRate float64, anyUp bool) bool { return anyUp })
}

// MonteCarloMinRate estimates MinRate by sampling element states.
func MonteCarloMinRate(paths []Path, fp FailProbs, minRate float64, samples int, rng *rand.Rand) float64 {
	return monteCarlo(paths, fp, samples, rng, func(upRate float64, anyUp bool) bool {
		return upRate >= minRate-1e-12
	})
}

func monteCarlo(paths []Path, fp FailProbs, samples int, rng *rand.Rand, ok func(upRate float64, anyUp bool) bool) float64 {
	if samples <= 0 || len(paths) == 0 {
		return 0
	}
	// Hoisted out of the sampling loop: the sorted distinct fallible
	// elements, and each path's distinct fallible elements as positions
	// into that list. The inner loop then tests a dense []bool instead of
	// deduplicating and probing a map per sample. Elements that never
	// fail are dropped up front (they cannot take a path down), and the
	// rng stream (one draw per distinct element, sorted order) is
	// unchanged.
	elems := map[int]bool{}
	for _, p := range paths {
		for _, e := range p.Elements {
			if fp[e] > 0 {
				elems[e] = true
			}
		}
	}
	ids := make([]int, 0, len(elems))
	for e := range elems {
		ids = append(ids, e)
	}
	sort.Ints(ids)
	pos := make(map[int]int, len(ids))
	for i, e := range ids {
		pos[e] = i
	}
	pathPos := make([][]int, len(paths))
	for pi, p := range paths {
		for _, e := range distinct(p.Elements) {
			if i, ok := pos[e]; ok {
				pathPos[pi] = append(pathPos[pi], i)
			}
		}
	}
	hits := 0
	down := make([]bool, len(ids))
	for s := 0; s < samples; s++ {
		for i, e := range ids {
			down[i] = rng.Float64() < fp[e]
		}
		rate := 0.0
		anyUp := false
		for pi, p := range paths {
			upP := true
			for _, i := range pathPos[pi] {
				if down[i] {
					upP = false
					break
				}
			}
			if upP {
				anyUp = true
				rate += p.Rate
			}
		}
		if ok(rate, anyUp) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// AtLeastOneAuto uses the exact analysis when feasible and falls back to
// Monte Carlo with the given sample budget otherwise.
func AtLeastOneAuto(paths []Path, fp FailProbs, samples int, rng *rand.Rand) (float64, error) {
	v, err := AtLeastOne(paths, fp)
	if err == nil {
		return v, nil
	}
	if errors.Is(err, ErrTooLarge) {
		return MonteCarloAtLeastOne(paths, fp, samples, rng), nil
	}
	return 0, err
}

// MinRateAuto uses the exact analysis when feasible and falls back to
// Monte Carlo otherwise.
func MinRateAuto(paths []Path, fp FailProbs, minRate float64, samples int, rng *rand.Rand) (float64, error) {
	v, err := MinRate(paths, fp, minRate)
	if err == nil {
		return v, nil
	}
	if errors.Is(err, ErrTooLarge) {
		return MonteCarloMinRate(paths, fp, minRate, samples, rng), nil
	}
	return 0, err
}
