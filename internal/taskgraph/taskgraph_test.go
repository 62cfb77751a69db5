package taskgraph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sparcle/internal/resource"
)

// buildExample returns the Fig. 1 multiple-viewpoint object classification
// graph: two camera sources feeding detection, then classification, then a
// consumer.
func buildExample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("fig1")
	cam1 := b.AddCT("camera1", nil)
	cam2 := b.AddCT("camera2", nil)
	det := b.AddCT("detect", resource.Vector{resource.CPU: 100})
	cls := b.AddCT("classify", resource.Vector{resource.CPU: 50})
	sink := b.AddCT("consumer", nil)
	b.AddTT("raw1", cam1, det, 3e6)
	b.AddTT("raw2", cam2, det, 3e6)
	b.AddTT("objects", det, cls, 2e5)
	b.AddTT("classes", cls, sink, 1e4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildExample(t *testing.T) {
	g := buildExample(t)
	if g.NumCTs() != 5 || g.NumTTs() != 4 {
		t.Fatalf("sizes: %d CTs, %d TTs", g.NumCTs(), g.NumTTs())
	}
	srcs := g.Sources()
	if len(srcs) != 2 || srcs[0] != 0 || srcs[1] != 1 {
		t.Fatalf("sources = %v", srcs)
	}
	snks := g.Sinks()
	if len(snks) != 1 || snks[0] != 4 {
		t.Fatalf("sinks = %v", snks)
	}
	if got := g.CT(2).Name; got != "detect" {
		t.Fatalf("CT(2).Name = %q", got)
	}
	if got := g.TT(2).Bits; got != 2e5 {
		t.Fatalf("TT(2).Bits = %v", got)
	}
	if !strings.Contains(g.String(), "fig1") {
		t.Fatalf("String() = %q", g.String())
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder("e").Build(); err == nil {
			t.Fatal("want error for empty graph")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		b := NewBuilder("c")
		a := b.AddCT("a", nil)
		c := b.AddCT("b", nil)
		b.AddTT("t1", a, c, 1)
		b.AddTT("t2", c, a, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for cyclic graph")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		b := NewBuilder("s")
		a := b.AddCT("a", nil)
		b.AddTT("t", a, a, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for self loop")
		}
	})
	t.Run("bad endpoint", func(t *testing.T) {
		b := NewBuilder("b")
		a := b.AddCT("a", nil)
		b.AddTT("t", a, CTID(9), 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for undefined CT")
		}
	})
	t.Run("negative bits", func(t *testing.T) {
		b := NewBuilder("n")
		a := b.AddCT("a", nil)
		c := b.AddCT("b", nil)
		b.AddTT("t", a, c, -1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for negative bits")
		}
	})
	t.Run("negative requirement", func(t *testing.T) {
		b := NewBuilder("r")
		b.AddCT("a", resource.Vector{resource.CPU: -5})
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for negative requirement")
		}
	})
	t.Run("NaN amounts", func(t *testing.T) {
		b := NewBuilder("r")
		b.AddCT("a", resource.Vector{resource.CPU: math.NaN()})
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("NaN requirement: err = %v, want a NaN error", err)
		}
		b = NewBuilder("n")
		a := b.AddCT("a", nil)
		c := b.AddCT("b", nil)
		b.AddTT("t", a, c, math.NaN())
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for NaN bits")
		}
	})
}

func TestAdjacency(t *testing.T) {
	g := buildExample(t)
	if got := g.OutTTs(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("OutTTs(cam1) = %v", got)
	}
	if got := g.InTTs(2); len(got) != 2 {
		t.Fatalf("InTTs(detect) = %v", got)
	}
	adj := g.AdjacentTTs(2)
	if len(adj) != 3 {
		t.Fatalf("AdjacentTTs(detect) = %v", adj)
	}
}

func TestReachable(t *testing.T) {
	g := buildExample(t)
	for _, tc := range []struct {
		i, j CTID
		want bool
	}{
		{0, 2, true},  // camera1 -> detect
		{2, 0, true},  // reachability is undirected for ranking
		{0, 1, false}, // two cameras are not related
		{0, 4, true},  // source to sink
		{3, 3, false}, // self
	} {
		if got := g.Reachable(tc.i, tc.j); got != tc.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
}

func TestMinBitsTTBetween(t *testing.T) {
	g := buildExample(t)
	// Adjacent pair: exactly the connecting TT.
	tt, ok := g.MinBitsTTBetween(2, 3)
	if !ok || g.TT(tt).Name != "objects" {
		t.Fatalf("MinBitsTTBetween(detect,classify) = %v ok=%v", tt, ok)
	}
	// Order must not matter.
	tt2, ok2 := g.MinBitsTTBetween(3, 2)
	if !ok2 || tt2 != tt {
		t.Fatalf("reverse lookup differs: %v vs %v", tt2, tt)
	}
	// Distant pair camera1..consumer: lightest TT on the path is "classes".
	tt3, ok3 := g.MinBitsTTBetween(0, 4)
	if !ok3 || g.TT(tt3).Name != "classes" {
		t.Fatalf("MinBitsTTBetween(cam1,consumer) = %q", g.TT(tt3).Name)
	}
	// Unrelated CTs: no TT between the two cameras.
	if _, ok := g.MinBitsTTBetween(0, 1); ok {
		t.Fatal("cameras must have no TT between them")
	}
}

func TestTopoOrder(t *testing.T) {
	g := buildExample(t)
	pos := make(map[CTID]int)
	for i, ct := range g.TopoOrder() {
		pos[ct] = i
	}
	for tt := 0; tt < g.NumTTs(); tt++ {
		e := g.TT(TTID(tt))
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topo order violates TT %d", tt)
		}
	}
}

func TestTotals(t *testing.T) {
	g := buildExample(t)
	if got := g.TotalReq()[resource.CPU]; got != 150 {
		t.Fatalf("TotalReq cpu = %v", got)
	}
	if got := g.TotalBits(); got != 3e6+3e6+2e5+1e4 {
		t.Fatalf("TotalBits = %v", got)
	}
}

func TestLinear(t *testing.T) {
	reqs := []resource.Vector{{resource.CPU: 1}, {resource.CPU: 2}, {resource.CPU: 3}}
	bits := []float64{10, 20, 30, 40}
	g, err := Linear("lin", reqs, bits)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCTs() != 5 || g.NumTTs() != 4 {
		t.Fatalf("sizes: %d CTs %d TTs", g.NumCTs(), g.NumTTs())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Fatal("linear graph must have one source and one sink")
	}
	if _, err := Linear("bad", reqs, bits[:2]); err == nil {
		t.Fatal("want length mismatch error")
	}
}

func TestDiamond(t *testing.T) {
	width := 4
	reqs := make([]resource.Vector, 2*width+1)
	for i := range reqs {
		reqs[i] = resource.Vector{resource.CPU: float64(i + 1)}
	}
	bits := make([]float64, 3*width+1)
	for i := range bits {
		bits[i] = float64(10 * (i + 1))
	}
	g, err := Diamond("dia", width, reqs, bits)
	if err != nil {
		t.Fatal(err)
	}
	// source + 2*width stages + join + consumer
	if g.NumCTs() != 2*width+3 || g.NumTTs() != 3*width+1 {
		t.Fatalf("sizes: %d CTs %d TTs", g.NumCTs(), g.NumTTs())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Fatal("diamond graph must have one source and one sink")
	}
	// Parallel branch CTs must not be reachable from each other.
	s1a, s1b := CTID(1), CTID(2)
	if g.Reachable(s1a, s1b) {
		t.Fatal("parallel branches must be unrelated")
	}
	if _, err := Diamond("bad", width, reqs[:3], bits); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Diamond("bad", width, reqs, bits[:3]); err == nil {
		t.Fatal("want length mismatch error")
	}
}

// TestQuickRandomDAGs builds random DAGs and checks structural invariants:
// sources/sinks partition correctly, Reachable is symmetric, and
// MinBitsTTBetween returns a TT on a path between the pair.
func TestQuickRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		b := NewBuilder("rand")
		ids := make([]CTID, n)
		for i := range ids {
			ids[i] = b.AddCT("ct", resource.Vector{resource.CPU: 1 + r.Float64()})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					b.AddTT("tt", ids[i], ids[j], 1+r.Float64()*100)
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for i := CTID(0); int(i) < n; i++ {
			for j := CTID(0); int(j) < n; j++ {
				if g.Reachable(i, j) != g.Reachable(j, i) {
					return false
				}
				tt, ok := g.MinBitsTTBetween(i, j)
				if ok != g.Reachable(i, j) && i != j {
					// Reachable pairs must have a TT between them.
					return false
				}
				if ok {
					e := g.TT(tt)
					// The TT endpoints must both lie "between" i and j.
					lo, hi := i, j
					if g.Reachable(j, i) && int(j) < int(i) {
						lo, hi = j, i
					}
					if int(e.From) < int(lo) || int(e.To) > int(hi) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDOT(t *testing.T) {
	g := buildExample(t)
	dot := g.DOT()
	for _, want := range []string{
		"digraph taskgraph",
		`"fig1"`,
		`"camera1"`,
		"ct0 -> ct2",
		"raw1 (3e+06)",
		"cpu: 100",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	if g.DOT() != dot {
		t.Fatal("DOT not deterministic")
	}
}
