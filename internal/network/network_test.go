package network

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sparcle/internal/resource"
)

func params() ElementParams {
	return ElementParams{
		NCPCapacity:   resource.Vector{resource.CPU: 3000},
		LinkBandwidth: 1e6,
		NCPFailProb:   0.01,
		LinkFailProb:  0.02,
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("n")
	a := b.AddNCP("a", resource.Vector{resource.CPU: 10}, 0)
	c := b.AddNCP("c", resource.Vector{resource.CPU: 20}, 0.5)
	l := b.AddLink("l", a, c, 100, 0.1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNCPs() != 2 || net.NumLinks() != 1 {
		t.Fatalf("sizes %d/%d", net.NumNCPs(), net.NumLinks())
	}
	if net.NCP(c).FailProb != 0.5 {
		t.Fatal("fail prob lost")
	}
	if net.Other(l, a) != c || net.Other(l, c) != a {
		t.Fatal("Other wrong")
	}
	if got := net.Incident(a); len(got) != 1 || got[0] != l {
		t.Fatalf("Incident = %v", got)
	}
	if id, ok := net.NCPIDByName("c"); !ok || id != c {
		t.Fatalf("NCPIDByName = %v %v", id, ok)
	}
	if _, ok := net.NCPIDByName("zzz"); ok {
		t.Fatal("unknown name found")
	}
	if !strings.Contains(net.String(), "2 NCPs") {
		t.Fatalf("String() = %q", net.String())
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder("e").Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		b := NewBuilder("s")
		a := b.AddNCP("a", nil, 0)
		b.AddLink("l", a, a, 1, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad endpoint", func(t *testing.T) {
		b := NewBuilder("b")
		a := b.AddNCP("a", nil, 0)
		b.AddLink("l", a, NCPID(7), 1, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad fail prob", func(t *testing.T) {
		b := NewBuilder("f")
		b.AddNCP("a", nil, 1.5)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("negative bandwidth", func(t *testing.T) {
		b := NewBuilder("n")
		a := b.AddNCP("a", nil, 0)
		c := b.AddNCP("c", nil, 0)
		b.AddLink("l", a, c, -5, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("negative capacity", func(t *testing.T) {
		b := NewBuilder("c")
		b.AddNCP("a", resource.Vector{resource.CPU: -1}, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("NaN amounts", func(t *testing.T) {
		b := NewBuilder("c")
		b.AddNCP("a", resource.Vector{resource.CPU: math.NaN()}, 0)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("NaN capacity: err = %v, want a NaN error", err)
		}
		b = NewBuilder("n")
		a := b.AddNCP("a", nil, 0)
		c := b.AddNCP("c", nil, 0)
		b.AddLink("l", a, c, math.NaN(), 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for NaN bandwidth")
		}
	})
}

func TestTopologies(t *testing.T) {
	p := params()
	t.Run("star", func(t *testing.T) {
		net, err := Star(8, p)
		if err != nil {
			t.Fatal(err)
		}
		if net.NumNCPs() != 8 || net.NumLinks() != 7 {
			t.Fatalf("star sizes %d/%d", net.NumNCPs(), net.NumLinks())
		}
		if !net.Connected() {
			t.Fatal("star must be connected")
		}
		if len(net.Incident(0)) != 7 {
			t.Fatal("hub degree wrong")
		}
	})
	t.Run("mesh", func(t *testing.T) {
		net, err := FullMesh(6, p)
		if err != nil {
			t.Fatal(err)
		}
		if net.NumNCPs() != 6 || net.NumLinks() != 15 {
			t.Fatalf("mesh sizes %d/%d", net.NumNCPs(), net.NumLinks())
		}
	})
	t.Run("too small", func(t *testing.T) {
		if _, err := Star(1, p); err == nil {
			t.Fatal("want error")
		}
		if _, err := FullMesh(1, p); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestCloudField(t *testing.T) {
	net, err := CloudField(CloudFieldParams{
		FieldCapacity:  resource.Vector{resource.CPU: 3000},
		CloudCapacity:  resource.Vector{resource.CPU: 15200},
		FieldBandwidth: 10e6,
		CloudBandwidth: 100e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNCPs() != 7 || net.NumLinks() != 8 {
		t.Fatalf("sizes %d/%d", net.NumNCPs(), net.NumLinks())
	}
	if !net.Connected() {
		t.Fatal("testbed must be connected")
	}
	cloud, ok := net.NCPIDByName(CloudFieldNames.Cloud)
	if !ok {
		t.Fatal("no cloud NCP")
	}
	if got := net.NCP(cloud).Capacity[resource.CPU]; got != 15200 {
		t.Fatalf("cloud capacity = %v", got)
	}
	// The cloud must be attached by exactly one uplink at cloud bandwidth.
	up := net.Incident(cloud)
	if len(up) != 1 || net.Link(up[0]).Bandwidth != 100e6 {
		t.Fatalf("cloud uplink wrong: %v", up)
	}
}

func TestCapacities(t *testing.T) {
	net, err := Star(3, params())
	if err != nil {
		t.Fatal(err)
	}
	caps := net.BaseCapacities()
	if caps.Get(0, resource.CPU) != 3000 || caps.Link[0] != 1e6 {
		t.Fatal("base capacities wrong")
	}
	// Mutating the base must not affect the network or later snapshots.
	caps.SubtractNCP(0, resource.Vector{resource.CPU: 1000}, 2)
	if caps.Get(0, resource.CPU) != 1000 {
		t.Fatalf("SubtractNCP: %v", caps.NCP(0))
	}
	if net.NCP(0).Capacity[resource.CPU] != 3000 {
		t.Fatal("network mutated through capacities")
	}
	fresh := net.BaseCapacities()
	if fresh.Get(0, resource.CPU) != 3000 {
		t.Fatal("fresh capacities polluted")
	}

	clone := caps.Clone()
	clone.SubtractLink(0, 1e6, 0.5)
	if caps.Link[0] != 1e6 {
		t.Fatal("Clone aliases Link")
	}
	if clone.Link[0] != 5e5 {
		t.Fatalf("SubtractLink: %v", clone.Link[0])
	}

	// Over-subtraction clamps to zero rather than going negative.
	clone.SubtractLink(0, 1e6, 100)
	if clone.Link[0] != 0 {
		t.Fatalf("clamp failed: %v", clone.Link[0])
	}
	clone.SubtractNCP(0, resource.Vector{resource.CPU: 1e9}, 1)
	if clone.Get(0, resource.CPU) != 0 {
		t.Fatalf("NCP clamp failed: %v", clone.NCP(0))
	}
	if !clone.NonNegative() {
		t.Fatal("NonNegative after clamping must hold")
	}
}

// TestBuildInternsKindsSorted pins the capacity columns: every kind an
// NCP names, zero amounts included, each once in sorted order whatever
// the map order, with each NCP's amounts in its row and zero where it
// names no amount. A kind no NCP names reads as zero and drops out of a
// reservation.
func TestBuildInternsKindsSorted(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		b := NewBuilder("kinds")
		b.AddNCP("a", resource.Vector{"zz": 1, "aa": 2, "skip": 0}, 0)
		b.AddNCP("b", resource.Vector{"mm": 3, "aa": 4}, 0)
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		caps := net.BaseCapacities()
		if got, want := caps.Kinds(), (resource.Kinds{"aa", "mm", "skip", "zz"}); !slices.Equal(got, want) {
			t.Fatalf("Kinds() = %v, want %v", got, want)
		}
		if got, want := caps.NCP(0), []float64{2, 0, 0, 1}; !slices.Equal(got, want) {
			t.Fatalf("row 0 = %v, want %v", got, want)
		}
		if got, want := caps.NCP(1), []float64{4, 3, 0, 0}; !slices.Equal(got, want) {
			t.Fatalf("row 1 = %v, want %v", got, want)
		}
		caps.SubtractNCP(1, resource.Vector{"mm": 1, "gpu": 5}, 2)
		if caps.Get(1, "mm") != 1 || caps.Get(1, "gpu") != 0 || caps.Get(0, "gpu") != 0 {
			t.Fatalf("after a reservation naming gpu: row 1 = %v", caps.NCP(1))
		}
	}
}

func TestDirectedLinks(t *testing.T) {
	b := NewBuilder("d")
	a := b.AddNCP("a", nil, 0)
	c := b.AddNCP("c", nil, 0)
	fwd := b.AddDirectedLink("fwd", a, c, 100, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !net.Link(fwd).Directed {
		t.Fatal("link must be directed")
	}
	// Traversable from a, not from c.
	if got := net.Incident(a); len(got) != 1 || got[0] != fwd {
		t.Fatalf("Incident(a) = %v", got)
	}
	if got := net.Incident(c); len(got) != 0 {
		t.Fatalf("Incident(c) = %v, want none", got)
	}
	if net.Other(fwd, a) != c {
		t.Fatal("Other wrong")
	}
	// Arcs resolve the far end: out of a to c, into c from a.
	if got := net.OutArcs(a); len(got) != 1 || got[0] != (Arc{Link: fwd, To: c}) {
		t.Fatalf("OutArcs(a) = %v", got)
	}
	if got := net.InArcs(c); len(got) != 1 || got[0] != (Arc{Link: fwd, To: a}) {
		t.Fatalf("InArcs(c) = %v", got)
	}
	if len(net.OutArcs(c)) != 0 || len(net.InArcs(a)) != 0 {
		t.Fatal("a directed link must not be walkable against its direction")
	}
	// Reachability from NCP 0 holds; the reverse direction does not exist.
	if !net.Connected() {
		t.Fatal("a should reach c")
	}
}

func TestDirectedDuplexPair(t *testing.T) {
	b := NewBuilder("duplex")
	a := b.AddNCP("a", nil, 0)
	c := b.AddNCP("c", nil, 0)
	b.AddDirectedLink("up", a, c, 100, 0)
	b.AddDirectedLink("down", c, a, 50, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Incident(a)) != 1 || len(net.Incident(c)) != 1 {
		t.Fatal("each node must see exactly its outgoing link")
	}
	caps := net.BaseCapacities()
	if caps.Link[0] != 100 || caps.Link[1] != 50 {
		t.Fatalf("capacities = %v", caps.Link)
	}
}
