package avail

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestAtLeastOneSinglePath(t *testing.T) {
	paths := []Path{{Elements: []int{1, 2}, Rate: 1}}
	fp := FailProbs{1: 0.1, 2: 0.2}
	got, err := AtLeastOne(paths, fp)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.9 * 0.8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAtLeastOneDisjointPaths(t *testing.T) {
	// Disjoint paths: 1 - prod(1 - a_p).
	paths := []Path{
		{Elements: []int{1}, Rate: 1},
		{Elements: []int{2}, Rate: 1},
	}
	fp := FailProbs{1: 0.3, 2: 0.4}
	got, err := AtLeastOne(paths, fp)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.7)*(1-0.6)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAtLeastOneSharedElement(t *testing.T) {
	// Both paths share element 0; exclusive elements 1 and 2.
	// P = P(0 up) * (1 - P(1 down)P(2 down)).
	paths := []Path{
		{Elements: []int{0, 1}, Rate: 1},
		{Elements: []int{0, 2}, Rate: 1},
	}
	fp := FailProbs{0: 0.1, 1: 0.2, 2: 0.3}
	got, err := AtLeastOne(paths, fp)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * (1 - 0.2*0.3)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAtLeastOneEdgeCases(t *testing.T) {
	if got, _ := AtLeastOne(nil, FailProbs{}); got != 0 {
		t.Fatal("no paths must give 0")
	}
	// No fallible elements: always available.
	got, err := AtLeastOne([]Path{{Elements: []int{1}}}, FailProbs{})
	if err != nil || got != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	// Invalid probability.
	if _, err := AtLeastOne([]Path{{Elements: []int{1}}}, FailProbs{1: 2}); err == nil {
		t.Fatal("want validation error")
	}
	// Too many paths.
	many := make([]Path, maxExactPaths+1)
	for i := range many {
		many[i] = Path{Elements: []int{i}}
	}
	if _, err := AtLeastOne(many, FailProbs{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestMinRateDisjointPaths(t *testing.T) {
	// Paper's Fig. 10(b) logic: rates {2.67, 1.2, 0.42}, min 2.7. With
	// disjoint paths, P = P(path1 up AND (path2 or path3 up)).
	paths := []Path{
		{Elements: []int{1}, Rate: 2.67},
		{Elements: []int{2}, Rate: 1.2},
		{Elements: []int{3}, Rate: 0.42},
	}
	fp := FailProbs{1: 0.1, 2: 0.1, 3: 0.1}
	got, err := MinRate(paths, fp, 2.7)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * (1 - 0.1*0.1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMinRateSharedElements(t *testing.T) {
	// Paths 1 and 2 share element 0. Need both up (rates sum exactly).
	paths := []Path{
		{Elements: []int{0, 1}, Rate: 2},
		{Elements: []int{0, 2}, Rate: 1},
	}
	fp := FailProbs{0: 0.1, 1: 0.2, 2: 0.3}
	got, err := MinRate(paths, fp, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * 0.8 * 0.7 // all three elements up
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Min rate 2: path 1 up suffices; or both.
	got2, err := MinRate(paths, fp, 2)
	if err != nil {
		t.Fatal(err)
	}
	want2 := 0.9 * 0.8 // element0 up & element1 up (path2 irrelevant)
	if math.Abs(got2-want2) > 1e-12 {
		t.Fatalf("got %v, want %v", got2, want2)
	}
}

func TestMinRateEdgeCases(t *testing.T) {
	if got, _ := MinRate(nil, FailProbs{}, 1); got != 0 {
		t.Fatal("no paths must give 0")
	}
	if got, _ := MinRate(nil, FailProbs{}, 0); got != 1 {
		t.Fatal("zero min rate is always met")
	}
	// Sum of all rates below min: probability 0.
	paths := []Path{{Elements: []int{1}, Rate: 1}}
	got, err := MinRate(paths, FailProbs{1: 0.1}, 5)
	if err != nil || got != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	// Element that always fails.
	got, err = MinRate(paths, FailProbs{1: 1}, 1)
	if err != nil || got != 0 {
		t.Fatalf("got %v, %v; want 0", got, err)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	// Compare the exact analyses against full element-state enumeration on
	// random instances with heavy sharing.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nElems := 2 + rng.Intn(6)
		fp := FailProbs{}
		for e := 0; e < nElems; e++ {
			fp[e] = rng.Float64() * 0.5
		}
		nPaths := 1 + rng.Intn(4)
		paths := make([]Path, nPaths)
		for p := range paths {
			k := 1 + rng.Intn(nElems)
			seen := map[int]bool{}
			for len(seen) < k {
				seen[rng.Intn(nElems)] = true
			}
			for e := range seen {
				paths[p].Elements = append(paths[p].Elements, e)
			}
			paths[p].Rate = 0.5 + rng.Float64()*3
		}
		minRate := rng.Float64() * 4

		wantAtLeast, wantMin := 0.0, 0.0
		for state := 0; state < 1<<nElems; state++ {
			prob := 1.0
			for e := 0; e < nElems; e++ {
				if state&(1<<e) != 0 {
					prob *= 1 - fp[e]
				} else {
					prob *= fp[e]
				}
			}
			rate, anyUp := 0.0, false
			for _, p := range paths {
				up := true
				for _, e := range p.Elements {
					if state&(1<<e) == 0 {
						up = false
						break
					}
				}
				if up {
					anyUp = true
					rate += p.Rate
				}
			}
			if anyUp {
				wantAtLeast += prob
			}
			if rate >= minRate-1e-12 {
				wantMin += prob
			}
		}

		gotAtLeast, err := AtLeastOne(paths, fp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(gotAtLeast-wantAtLeast) > 1e-9 {
			t.Fatalf("trial %d: AtLeastOne %v, brute force %v", trial, gotAtLeast, wantAtLeast)
		}
		gotMin, err := MinRate(paths, fp, minRate)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(gotMin-wantMin) > 1e-9 {
			t.Fatalf("trial %d: MinRate %v, brute force %v", trial, gotMin, wantMin)
		}
	}
}

func TestMonteCarloAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	paths := []Path{
		{Elements: []int{0, 1}, Rate: 2},
		{Elements: []int{0, 2}, Rate: 1.5},
		{Elements: []int{3}, Rate: 1},
	}
	fp := FailProbs{0: 0.05, 1: 0.1, 2: 0.15, 3: 0.2}
	exactA, err := AtLeastOne(paths, fp)
	if err != nil {
		t.Fatal(err)
	}
	mcA := MonteCarloAtLeastOne(paths, fp, 200000, rng)
	if math.Abs(exactA-mcA) > 0.01 {
		t.Fatalf("MC at-least-one %v vs exact %v", mcA, exactA)
	}
	exactM, err := MinRate(paths, fp, 3)
	if err != nil {
		t.Fatal(err)
	}
	mcM := MonteCarloMinRate(paths, fp, 3, 200000, rng)
	if math.Abs(exactM-mcM) > 0.01 {
		t.Fatalf("MC min-rate %v vs exact %v", mcM, exactM)
	}
}

func TestAutoFallsBackToMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// 22 single-element disjoint paths exceed the exact path limit.
	var paths []Path
	fp := FailProbs{}
	for i := 0; i < 22; i++ {
		paths = append(paths, Path{Elements: []int{i}, Rate: 1})
		fp[i] = 0.5
	}
	got, err := AtLeastOneAuto(paths, fp, 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.5, 22)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("auto at-least-one %v, want ~%v", got, want)
	}
	gotM, err := MinRateAuto(paths, fp, 11, 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Binomial(22, 0.5) >= 11 has probability ~0.584.
	if math.Abs(gotM-0.584) > 0.02 {
		t.Fatalf("auto min-rate %v, want ~0.584", gotM)
	}
	// Invalid probabilities surface as errors, not fallbacks.
	if _, err := AtLeastOneAuto(paths, FailProbs{0: -1}, 10, rng); err == nil {
		t.Fatal("want validation error")
	}
}

func TestMonteCarloDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := MonteCarloAtLeastOne(nil, FailProbs{}, 100, rng); got != 0 {
		t.Fatal("no paths must give 0")
	}
	if got := MonteCarloMinRate([]Path{{Elements: []int{1}, Rate: 1}}, FailProbs{}, 1, 0, rng); got != 0 {
		t.Fatal("zero samples must give 0")
	}
}

func TestBirnbaumImportance(t *testing.T) {
	// Element 0 is shared by both paths (single point of failure);
	// elements 1 and 2 are redundant. Element 0 must rank first with
	// importance equal to the redundant stage's availability.
	paths := []Path{
		{Elements: []int{0, 1}, Rate: 1},
		{Elements: []int{0, 2}, Rate: 1},
	}
	fp := FailProbs{0: 0.1, 1: 0.2, 2: 0.2}
	imp, err := BirnbaumImportance(paths, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 3 {
		t.Fatalf("got %d elements", len(imp))
	}
	if imp[0].Element != 0 {
		t.Fatalf("most critical = %d, want shared element 0", imp[0].Element)
	}
	// B(0) = P(redundant stage up) - 0 = 1 - 0.2*0.2 = 0.96.
	if math.Abs(imp[0].Birnbaum-0.96) > 1e-12 {
		t.Fatalf("B(0) = %v, want 0.96", imp[0].Birnbaum)
	}
	// B(1) = P(0 up)*(P(path via 2 down contribution)): with 1 up the
	// system is up iff 0 up (0.9); with 1 down, up iff 0 and 2 up
	// (0.9*0.8=0.72): B(1) = 0.9 - 0.72 = 0.18.
	for _, im := range imp[1:] {
		if math.Abs(im.Birnbaum-0.18) > 1e-12 {
			t.Fatalf("B(%d) = %v, want 0.18", im.Element, im.Birnbaum)
		}
	}
	// Monotone ordering.
	for i := 1; i < len(imp); i++ {
		if imp[i].Birnbaum > imp[i-1].Birnbaum {
			t.Fatal("importance not sorted")
		}
	}
}

func TestBirnbaumImportanceValidation(t *testing.T) {
	paths := []Path{{Elements: []int{0}, Rate: 1}}
	if _, err := BirnbaumImportance(paths, FailProbs{0: 7}); err == nil {
		t.Fatal("invalid probability must error")
	}
	// Elements that never fail are not ranked.
	imp, err := BirnbaumImportance(paths, FailProbs{})
	if err != nil || len(imp) != 0 {
		t.Fatalf("imp = %v, err = %v", imp, err)
	}
}

// TestAnalysesValidateWhatThePathsRead: an invalid probability on a path
// element is an error; one on an element no path uses is never read and
// does not cost a scan of the whole map per call.
func TestAnalysesValidateWhatThePathsRead(t *testing.T) {
	paths := []Path{{Elements: []int{0, 1}, Rate: 2}, {Elements: []int{2}, Rate: 1}}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := AtLeastOne(paths, FailProbs{1: bad}); err == nil {
			t.Fatalf("AtLeastOne accepted probability %v on a path element", bad)
		}
		if _, err := MinRate(paths, FailProbs{2: bad}, 1); err == nil {
			t.Fatalf("MinRate accepted probability %v on a path element", bad)
		}
	}
	off := FailProbs{0: 0.1, 2: 0.2, 99: 7}
	on := FailProbs{0: 0.1, 2: 0.2}
	a, err := AtLeastOne(paths, off)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := AtLeastOne(paths, on); a != b {
		t.Fatalf("an unused element changed AtLeastOne: %v vs %v", a, b)
	}
	m, err := MinRate(paths, off, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := MinRate(paths, on, 2); m != b {
		t.Fatalf("an unused element changed MinRate: %v vs %v", m, b)
	}
}
