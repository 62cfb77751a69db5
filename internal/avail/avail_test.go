package avail

import (
	"errors"
	"fmt"
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
	many := make([]Path, MaxPaths+1)
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
	// Compare the exact analyses against an enumeration of element states
	// on random instances with heavy sharing.
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
		checkBruteForce(t, fmt.Sprintf("trial %d", trial), paths, fp, rng.Float64()*4)
	}
	// Instances past the old element limits, which the conditioning
	// analysis refused with ErrTooLarge: 65-104 fallible elements, most of
	// them on several paths.
	for trial := 0; trial < 12; trial++ {
		nElems := 65 + rng.Intn(40)
		nPaths := 2 + rng.Intn(3)
		fp := FailProbs{}
		paths := make([]Path, nPaths)
		for e := 0; e < nElems; e++ {
			fp[e] = rng.Float64() * 0.02
			paths[e%nPaths].Elements = append(paths[e%nPaths].Elements, e)
			for p := range paths {
				if p != e%nPaths && rng.Float64() < 0.4 {
					paths[p].Elements = append(paths[p].Elements, e)
				}
			}
		}
		for p := range paths {
			paths[p].Rate = 0.5 + rng.Float64()*3
		}
		name := fmt.Sprintf("large trial %d", trial)
		if _, err := refMinRate(paths, fp, 1); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: the reference analysis answered (err %v); the instance does not exceed its limits", name, err)
		}
		checkBruteForce(t, name, paths, fp, rng.Float64()*4)
	}
}

// checkBruteForce compares AtLeastOne and MinRate with an enumeration of
// the joint states of the instance's element classes. A class is the
// fallible elements that lie on exactly the same set of paths: the paths
// see only whether all of a class is up, which happens with the product
// of its members' up-probabilities, independently of the other classes.
// Enumerating classes instead of elements keeps instances with a hundred
// elements to at most 2^(2^P - 1) states.
func checkBruteForce(t *testing.T, name string, paths []Path, fp FailProbs, minRate float64) {
	t.Helper()
	classOf := map[int]int{} // path-set bitmask -> class index
	var classUp []float64
	var classPaths []int
	onPaths := map[int]int{}
	for p, path := range paths {
		for _, e := range path.Elements {
			onPaths[e] |= 1 << p
		}
	}
	for e, set := range onPaths {
		if fp[e] == 0 {
			continue
		}
		c, ok := classOf[set]
		if !ok {
			c = len(classUp)
			classOf[set] = c
			classUp = append(classUp, 1)
			classPaths = append(classPaths, set)
		}
		classUp[c] *= 1 - fp[e]
	}
	wantAtLeast, wantMin := 0.0, 0.0
	for state := 0; state < 1<<len(classUp); state++ {
		prob, down := 1.0, 0 // down: paths with a class down
		for c, up := range classUp {
			if state&(1<<c) != 0 {
				prob *= up
			} else {
				prob *= 1 - up
				down |= classPaths[c]
			}
		}
		rate, anyUp := 0.0, false
		for p, path := range paths {
			if down&(1<<p) == 0 {
				anyUp = true
				rate += path.Rate
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
		t.Fatalf("%s: %v", name, err)
	}
	if math.Abs(gotAtLeast-wantAtLeast) > 1e-9 {
		t.Fatalf("%s: AtLeastOne %v, brute force %v", name, gotAtLeast, wantAtLeast)
	}
	gotMin, err := MinRate(paths, fp, minRate)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Abs(gotMin-wantMin) > 1e-9 {
		t.Fatalf("%s: MinRate %v, brute force %v", name, gotMin, wantMin)
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
