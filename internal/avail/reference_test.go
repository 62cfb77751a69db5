package avail

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the exact analyses as they stood before the up-set
// table replaced them: inclusion–exclusion over 64-bit element masks for
// at-least-one, and conditioning on the states of shared elements for
// min-rate. They are the reference the differential test compares the
// current AtLeastOne and MinRate against; the identifiers carry a ref
// prefix and the code is otherwise unchanged.

const (
	refMaxPaths  = 20
	refMaxShared = 16
)

// refAtLeastOne returns the exact probability that at least one path works,
// accounting for arbitrary element overlap via inclusion–exclusion over
// path subsets: P(∪ A_p) = Σ_{S≠∅} (-1)^{|S|+1} Π_{e ∈ union(S)} (1-pf_e).
func refAtLeastOne(paths []Path, fp FailProbs) (float64, error) {
	if err := fp.validateOn(paths); err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, nil
	}
	if len(paths) > refMaxPaths {
		return 0, fmt.Errorf("%w: %d paths", ErrTooLarge, len(paths))
	}
	idx, masks := refElementMasks(paths, fp)
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
		prob := refProbAllUp(union, up)
		if bits%2 == 1 {
			total += prob
		} else {
			total -= prob
		}
	}
	return clampProb(total), nil
}

// refMinRate returns the exact min-rate availability P(sum of rates of
// working paths >= minRate), eq. (7). It conditions on the joint state of
// the shared elements (those on more than one path), under which paths are
// independent, and enumerates the qualifying path subsets.
func refMinRate(paths []Path, fp FailProbs, minRate float64) (float64, error) {
	if err := fp.validateOn(paths); err != nil {
		return 0, err
	}
	if minRate <= 0 {
		return 1, nil
	}
	if len(paths) == 0 {
		return 0, nil
	}
	if len(paths) > refMaxPaths {
		return 0, fmt.Errorf("%w: %d paths", ErrTooLarge, len(paths))
	}
	idx, masks := refElementMasks(paths, fp)
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
	if len(shared) > refMaxShared {
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
		exclUp[p] = refProbAllUp(m&^sharedMask, up)
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
		total += stateProb * refProbRateAtLeast(paths, q, minRate)
	}
	return clampProb(total), nil
}

// refProbRateAtLeast returns P(sum over up paths of rate >= minRate) for
// independent Bernoulli paths with up-probabilities q. This is the subset
// enumeration the paper derives from the subset-sum formulation.
func refProbRateAtLeast(paths []Path, q []float64, minRate float64) float64 {
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

// refElementMasks assigns bit positions to the distinct fallible elements
// across all paths (at most 64 supported by the exact analyses; beyond
// that, elements with zero failure probability are already excluded and
// larger instances should use Monte Carlo) and returns each path's mask.
func refElementMasks(paths []Path, fp FailProbs) (map[int]int, []uint64) {
	// Dedup each path's element list once and reuse the set in both
	// passes instead of recomputing it per loop.
	elems := make([][]int, len(paths))
	for pi, p := range paths {
		elems[pi] = refDistinct(p.Elements)
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

func refProbAllUp(mask uint64, up []float64) float64 {
	prob := 1.0
	for i := 0; i < len(up) && i < 64; i++ {
		if mask&(1<<i) != 0 {
			prob *= up[i]
		}
	}
	return prob
}

func refDistinct(xs []int) []int {
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

// TestUpSetsMatchReference compares AtLeastOne and MinRate with the
// reference analyses on seeded instances shaped like the scheduler's and
// the experiments': 1-8 paths of up to 12 elements drawn from at most 45,
// with failure probabilities of 0, below 1e-6 and up to 0.3. Half of the
// minimum rates are an exact sum of path rates, the boundary where a
// rounding difference would flip a verdict. AtLeastOne multiplies and
// sums in the reference's order, so it must agree bit for bit on every
// instance; MinRate must agree within 1e-12 wherever the reference's
// enumeration stays under 2^16 states (over 20,000 of the instances).
func TestUpSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	compared := 0
	for trial := 0; trial < 23000; trial++ {
		nElems := 1 + rng.Intn(45)
		fp := FailProbs{}
		for e := 0; e < nElems; e++ {
			switch rng.Intn(4) {
			case 0: // never fails: absent, or present at 0
				if rng.Intn(2) == 0 {
					fp[e] = 0
				}
			case 1:
				fp[e] = rng.Float64() * 1e-6
			default:
				fp[e] = rng.Float64() * 0.3
			}
		}
		paths := make([]Path, 1+rng.Intn(8))
		for p := range paths {
			for k := 1 + rng.Intn(min(12, nElems)); k > 0; k-- {
				paths[p].Elements = append(paths[p].Elements, rng.Intn(nElems))
			}
			paths[p].Rate = 0.1 + rng.Float64()*3
		}
		minRate := rng.Float64() * 6
		if rng.Intn(2) == 0 {
			// Summed in the reverse of the analyses' order, so the last
			// bit can differ from their sum: the 1e-12 tolerance decides.
			minRate = 0
			for p := len(paths) - 1; p >= 0; p-- {
				if rng.Intn(2) == 0 {
					minRate += paths[p].Rate
				}
			}
		}

		want, err := refAtLeastOne(paths, fp)
		if err != nil {
			t.Fatalf("trial %d: reference AtLeastOne: %v", trial, err)
		}
		got, err := AtLeastOne(paths, fp)
		if err != nil {
			t.Fatalf("trial %d: AtLeastOne: %v", trial, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: AtLeastOne %v, reference %v", trial, got, want)
		}
		if shared(paths, fp)+len(paths) > 16 {
			// The reference enumerates 2^shared states of 2^P subsets
			// each; past 2^16 a handful of instances would dominate the
			// test's run time.
			continue
		}
		wantMin, err := refMinRate(paths, fp, minRate)
		if err != nil {
			t.Fatalf("trial %d: reference MinRate: %v", trial, err)
		}
		gotMin, err := MinRate(paths, fp, minRate)
		if err != nil {
			t.Fatalf("trial %d: MinRate: %v", trial, err)
		}
		if math.Abs(gotMin-wantMin) > 1e-12 {
			t.Fatalf("trial %d: MinRate %v, reference %v", trial, gotMin, wantMin)
		}
		compared++
	}
	if compared < 20000 {
		t.Fatalf("MinRate compared on only %d instances", compared)
	}
}

// shared counts the fallible elements that lie on more than one path.
func shared(paths []Path, fp FailProbs) int {
	on := map[int]int{}
	for _, path := range paths {
		for _, e := range refDistinct(path.Elements) {
			on[e]++
		}
	}
	n := 0
	for e, c := range on {
		if c > 1 && fp[e] != 0 {
			n++
		}
	}
	return n
}
