package placement

import (
	"math"
	"strings"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// fixture builds the paper's Fig. 1 task graph and Fig. 2 computing
// network and returns them with the NCP/link ids needed to recreate the
// example placement of Fig. 2's table.
type fixture struct {
	g   *taskgraph.Graph
	net *network.Network
	// task graph ids
	ct [6]taskgraph.CTID // 1-indexed like the paper; ct[0] unused
	tt [5]taskgraph.TTID // 1-indexed; tt[0] unused
	// network ids
	ncp  [5]network.NCPID // 1-indexed
	link map[string]network.LinkID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{link: map[string]network.LinkID{}}

	tb := taskgraph.NewBuilder("fig1")
	f.ct[1] = tb.AddCT("camera1", nil)
	f.ct[2] = tb.AddCT("camera2", nil)
	f.ct[3] = tb.AddCT("detect", resource.Vector{resource.CPU: 10})
	f.ct[4] = tb.AddCT("classify", resource.Vector{resource.CPU: 5})
	f.ct[5] = tb.AddCT("consumer", nil)
	f.tt[1] = tb.AddTT("tt1", f.ct[1], f.ct[3], 8)
	f.tt[2] = tb.AddTT("tt2", f.ct[2], f.ct[3], 8)
	f.tt[3] = tb.AddTT("tt3", f.ct[3], f.ct[4], 2)
	f.tt[4] = tb.AddTT("tt4", f.ct[4], f.ct[5], 1)
	g, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	f.g = g

	// Fig. 2 network: NCP1..NCP4 with 8 links. We keep the link names from
	// the figure that the example uses (L1, L2, L6) and wire the rest to
	// make a connected mesh.
	nb := network.NewBuilder("fig2")
	for i := 1; i <= 4; i++ {
		f.ncp[i] = nb.AddNCP("ncp", resource.Vector{resource.CPU: 100}, 0)
	}
	addLink := func(name string, a, b network.NCPID) {
		f.link[name] = nb.AddLink(name, a, b, 64, 0)
	}
	addLink("L1", f.ncp[1], f.ncp[2])
	addLink("L2", f.ncp[2], f.ncp[4])
	addLink("L3", f.ncp[1], f.ncp[4])
	addLink("L6", f.ncp[3], f.ncp[1])
	addLink("L7", f.ncp[3], f.ncp[4])
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	f.net = net
	return f
}

// placeExample applies the Fig. 2 table: CT1->NCP1, CT2->NCP3,
// CT3,CT4->NCP2, CT5->NCP4, TT1 on L1, TT2 on L6&L1, TT3 local, TT4 on L2.
func (f *fixture) placeExample(t *testing.T) *Placement {
	t.Helper()
	p := New(f.g, f.net)
	steps := []struct {
		ct   taskgraph.CTID
		host network.NCPID
	}{
		{f.ct[1], f.ncp[1]},
		{f.ct[2], f.ncp[3]},
		{f.ct[3], f.ncp[2]},
		{f.ct[4], f.ncp[2]},
		{f.ct[5], f.ncp[4]},
	}
	for _, s := range steps {
		if err := p.PlaceCT(s.ct, s.host); err != nil {
			t.Fatal(err)
		}
	}
	routes := []struct {
		tt    taskgraph.TTID
		route []network.LinkID
	}{
		{f.tt[1], []network.LinkID{f.link["L1"]}},
		{f.tt[2], []network.LinkID{f.link["L6"], f.link["L1"]}},
		{f.tt[3], nil}, // CT3 and CT4 co-located on NCP2
		{f.tt[4], []network.LinkID{f.link["L2"]}},
	}
	for _, r := range routes {
		if err := p.PlaceTT(r.tt, r.route); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestExamplePlacementLoads(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	if !p.Complete() {
		t.Fatal("placement must be complete")
	}
	// Paper §IV.A: R = [0, aCT3+aCT4, 0, 0, aTT1+aTT2, aTT4, 0, ..., aTT2, ...].
	if got := p.NCPLoad(f.ncp[2])[resource.CPU]; got != 15 {
		t.Fatalf("NCP2 load = %v, want aCT3+aCT4 = 15", got)
	}
	if got := p.NCPLoad(f.ncp[1]); !got.IsZero() {
		t.Fatalf("NCP1 load = %v, want zero (source only)", got)
	}
	if got := p.LinkLoad(f.link["L1"]); got != 16 {
		t.Fatalf("L1 load = %v, want aTT1+aTT2 = 16", got)
	}
	if got := p.LinkLoad(f.link["L6"]); got != 8 {
		t.Fatalf("L6 load = %v, want aTT2 = 8", got)
	}
	if got := p.LinkLoad(f.link["L2"]); got != 1 {
		t.Fatalf("L2 load = %v, want aTT4 = 1", got)
	}
}

func TestExamplePlacementRate(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	caps := f.net.BaseCapacities()
	// x <= min(C_NCP2/(a3+a4), C_L2/aTT4, C_L6/aTT2, C_L1/(aTT1+aTT2))
	//    = min(100/15, 64/1, 64/8, 64/16) = 4.
	if got := p.Rate(caps); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Rate = %v, want 4", got)
	}
	if err := p.Validate(Pins{f.ct[1]: f.ncp[1], f.ct[5]: f.ncp[4]}); err != nil {
		t.Fatal(err)
	}
}

func TestRateIncomplete(t *testing.T) {
	f := newFixture(t)
	p := New(f.g, f.net)
	if got := p.Rate(f.net.BaseCapacities()); got != 0 {
		t.Fatalf("incomplete placement rate = %v, want 0", got)
	}
	if p.Complete() {
		t.Fatal("fresh placement must be incomplete")
	}
}

func TestSubtract(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	caps := f.net.BaseCapacities()
	p.Subtract(caps, 4)
	if got := caps.Get(f.ncp[2], resource.CPU); math.Abs(got-40) > 1e-9 {
		t.Fatalf("NCP2 residual = %v, want 100-4*15=40", got)
	}
	if got := caps.Link[f.link["L1"]]; math.Abs(got-0) > 1e-9 {
		t.Fatalf("L1 residual = %v, want 0", got)
	}
	// After subtracting at the bottleneck rate, the same placement's rate
	// under the residual capacities must be zero.
	if got := p.Rate(caps); got != 0 {
		t.Fatalf("residual rate = %v, want 0", got)
	}
}

func TestPlacementErrors(t *testing.T) {
	f := newFixture(t)
	p := New(f.g, f.net)
	if err := p.PlaceCT(f.ct[1], f.ncp[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.PlaceCT(f.ct[1], f.ncp[2]); err == nil {
		t.Fatal("double placement must fail")
	}
	if err := p.PlaceCT(f.ct[2], network.NCPID(99)); err == nil {
		t.Fatal("invalid host must fail")
	}
	if err := p.PlaceTT(f.tt[1], nil); err == nil {
		t.Fatal("TT with unplaced endpoint must fail")
	}
	if err := p.PlaceCT(f.ct[3], f.ncp[2]); err != nil {
		t.Fatal(err)
	}
	// Wrong route: L2 does not touch NCP1.
	if err := p.PlaceTT(f.tt[1], []network.LinkID{f.link["L2"]}); err == nil {
		t.Fatal("non-contiguous route must fail")
	}
	// Empty route with endpoints apart must fail.
	if err := p.PlaceTT(f.tt[1], nil); err == nil {
		t.Fatal("empty route for distant endpoints must fail")
	}
	if err := p.PlaceTT(f.tt[1], []network.LinkID{f.link["L1"]}); err != nil {
		t.Fatal(err)
	}
	if err := p.PlaceTT(f.tt[1], []network.LinkID{f.link["L1"]}); err == nil {
		t.Fatal("double TT placement must fail")
	}
}

func TestValidateCatchesPinViolation(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	err := p.Validate(Pins{f.ct[1]: f.ncp[2]})
	if err == nil {
		t.Fatal("pin violation must fail validation")
	}
}

func TestClone(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	c := p.Clone()
	caps := f.net.BaseCapacities()
	if c.Rate(caps) != p.Rate(caps) {
		t.Fatal("clone rate differs")
	}
	// Mutating the clone's loads via Subtract must not touch the original.
	c.Subtract(caps, 1)
	if p.Rate(f.net.BaseCapacities()) != 4 {
		t.Fatal("original placement mutated")
	}
}

func TestUsedElements(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	elems := p.UsedElements()
	want := map[Element]bool{
		NCPElement(f.ncp[1]):             true,
		NCPElement(f.ncp[2]):             true,
		NCPElement(f.ncp[3]):             true,
		NCPElement(f.ncp[4]):             true,
		LinkElement(f.net, f.link["L1"]): true,
		LinkElement(f.net, f.link["L2"]): true,
		LinkElement(f.net, f.link["L6"]): true,
	}
	if len(elems) != len(want) {
		t.Fatalf("UsedElements = %v (%d), want %d elements", elems, len(elems), len(want))
	}
	for _, e := range elems {
		if !want[e] {
			t.Fatalf("unexpected element %v", e)
		}
	}
}

func TestElementFailProb(t *testing.T) {
	b := network.NewBuilder("f")
	a := b.AddNCP("a", nil, 0.25)
	c := b.AddNCP("c", nil, 0)
	l := b.AddLink("l", a, c, 1, 0.5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := NCPElement(a).FailProb(net); got != 0.25 {
		t.Fatalf("NCP fail prob = %v", got)
	}
	if got := LinkElement(net, l).FailProb(net); got != 0.5 {
		t.Fatalf("link fail prob = %v", got)
	}
}

func TestDOT(t *testing.T) {
	f := newFixture(t)
	p := f.placeExample(t)
	dot := p.DOT()
	for _, want := range []string{
		"digraph placement",
		`subgraph cluster_ncp`,
		`"detect"`,
		`"classify"`,
		"via L1",
		"ct0 -> ct2",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Stable output.
	if p.DOT() != dot {
		t.Fatal("DOT output not deterministic")
	}
	// Unplaced CTs render dashed.
	fresh := New(f.g, f.net)
	if !strings.Contains(fresh.DOT(), "style=dashed") {
		t.Fatal("unplaced CTs must render dashed")
	}
}
