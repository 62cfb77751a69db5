package alloc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// pipelineFlow builds a one-CT pipeline src -> ct -> snk placed on the
// given middle NCP, with cpu requirement and TT bits, for allocation tests.
func pipelineFlow(t *testing.T, net *network.Network, src, mid, snk network.NCPID, cpu, bits, weight float64, linkIn, linkOut []network.LinkID) Flow {
	t.Helper()
	b := taskgraph.NewBuilder("f")
	s := b.AddCT("src", nil)
	c := b.AddCT("ct", resource.Vector{resource.CPU: cpu})
	k := b.AddCT("snk", nil)
	b.AddTT("in", s, c, bits)
	b.AddTT("out", c, k, bits)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(g, net)
	for ct, host := range map[taskgraph.CTID]network.NCPID{s: src, c: mid, k: snk} {
		if err := p.PlaceCT(ct, host); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.PlaceTT(0, linkIn); err != nil {
		t.Fatal(err)
	}
	if err := p.PlaceTT(1, linkOut); err != nil {
		t.Fatal(err)
	}
	return Flow{Weight: weight, Path: p}
}

// line3 returns a 3-node line network src -- mid -- snk.
func line3(t *testing.T, cpu, bw float64) (*network.Network, [2]network.LinkID) {
	t.Helper()
	b := network.NewBuilder("line3")
	src := b.AddNCP("src", nil, 0)
	mid := b.AddNCP("mid", resource.Vector{resource.CPU: cpu}, 0)
	snk := b.AddNCP("snk", nil, 0)
	l0 := b.AddLink("l0", src, mid, bw, 0)
	l1 := b.AddLink("l1", mid, snk, bw, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, [2]network.LinkID{l0, l1}
}

func TestSolveSingleBottleneckClosedForm(t *testing.T) {
	// Two flows sharing one CPU (the only bottleneck): the PF optimum is
	// x_i = (w_i / sum w) * C / a_i.
	net, links := line3(t, 100, 1e9)
	f1 := pipelineFlow(t, net, 0, 1, 2, 10, 1, 1, []network.LinkID{links[0]}, []network.LinkID{links[1]})
	f2 := pipelineFlow(t, net, 0, 1, 2, 20, 1, 3, []network.LinkID{links[0]}, []network.LinkID{links[1]})
	x, _, err := SolveStats(net.BaseCapacities(), []Flow{f1, f2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want1 := (1.0 / 4.0) * 100 / 10 // 2.5
	want2 := (3.0 / 4.0) * 100 / 20 // 3.75
	if math.Abs(x[0]-want1) > 0.05*want1 || math.Abs(x[1]-want2) > 0.05*want2 {
		t.Fatalf("x = %v, want ~[%v %v]", x, want1, want2)
	}
	// Feasibility must be exact.
	if demand := 10*x[0] + 20*x[1]; demand > 100+1e-9 {
		t.Fatalf("CPU overcommitted: %v", demand)
	}
}

func TestSolveEqualWeightsEqualFlows(t *testing.T) {
	net, links := line3(t, 90, 1e9)
	var flows []Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, pipelineFlow(t, net, 0, 1, 2, 10, 1, 1, []network.LinkID{links[0]}, []network.LinkID{links[1]}))
	}
	x, _, err := SolveStats(net.BaseCapacities(), flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, xi := range x {
		if math.Abs(xi-3) > 0.1 {
			t.Fatalf("x = %v, want each ~3", x)
		}
	}
}

func TestSolveLinkBottleneck(t *testing.T) {
	// Narrow links, huge CPU: bandwidth must bind. One flow alone:
	// x = bw / bits = 50/5 = 10.
	net, links := line3(t, 1e9, 50)
	f := pipelineFlow(t, net, 0, 1, 2, 1, 5, 2, []network.LinkID{links[0]}, []network.LinkID{links[1]})
	x, _, err := SolveStats(net.BaseCapacities(), []Flow{f}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-10) > 0.2 {
		t.Fatalf("x = %v, want ~10", x[0])
	}
}

func TestSolveKKTOnRandomInstances(t *testing.T) {
	// On random two-resource instances, verify near-feasibility plus an
	// approximate KKT/fairness check: perturbing rates along any feasible
	// exchange direction must not improve the utility noticeably.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		cpu := 50 + rng.Float64()*100
		bw := 20 + rng.Float64()*100
		net, links := line3(t, cpu, bw)
		nf := 2 + rng.Intn(3)
		flows := make([]Flow, nf)
		for i := range flows {
			flows[i] = pipelineFlow(t, net, 0, 1, 2,
				1+rng.Float64()*10, 1+rng.Float64()*10, 0.5+rng.Float64()*3,
				[]network.LinkID{links[0]}, []network.LinkID{links[1]})
		}
		x, _, err := SolveStats(net.BaseCapacities(), flows, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := Utility(flows, x)
		if math.IsInf(base, -1) {
			t.Fatalf("trial %d: zero rate in %v", trial, x)
		}
		// Random small feasible rescalings must not beat the solution by
		// more than the solver tolerance.
		for k := 0; k < 200; k++ {
			y := make([]float64, nf)
			for i := range y {
				y[i] = x[i] * (0.9 + rng.Float64()*0.2)
			}
			if !feasible(net, flows, y) {
				continue
			}
			if u := Utility(flows, y); u > base+0.02*math.Abs(base)+0.02 {
				t.Fatalf("trial %d: perturbation improves utility %v -> %v", trial, base, u)
			}
		}
	}
}

// feasible verifies R X <= C directly (Capacities.Subtract clamps at zero,
// so it cannot be used to detect violations).
func feasible(net *network.Network, flows []Flow, x []float64) bool {
	const tol = 1e-9
	for v := 0; v < net.NumNCPs(); v++ {
		demand := resource.Vector{}
		for f, flow := range flows {
			demand.AddScaled(flow.Path.NCPLoad(network.NCPID(v)), x[f])
		}
		for k, d := range demand {
			if d > net.NCP(network.NCPID(v)).Capacity[k]*(1+tol) {
				return false
			}
		}
	}
	for l := 0; l < net.NumLinks(); l++ {
		demand := 0.0
		for f, flow := range flows {
			demand += flow.Path.LinkLoad(network.LinkID(l)) * x[f]
		}
		if demand > net.Link(network.LinkID(l)).Bandwidth*(1+tol) {
			return false
		}
	}
	return true
}

func TestSolveInputValidation(t *testing.T) {
	net, links := line3(t, 10, 10)
	if _, _, err := SolveStats(net.BaseCapacities(), nil, Options{}); !errors.Is(err, ErrNoFlows) {
		t.Fatalf("err = %v, want ErrNoFlows", err)
	}
	f := pipelineFlow(t, net, 0, 1, 2, 1, 1, -1, []network.LinkID{links[0]}, []network.LinkID{links[1]})
	if _, _, err := SolveStats(net.BaseCapacities(), []Flow{f}, Options{}); err == nil {
		t.Fatal("negative weight must error")
	}
}

func TestSolveZeroCapacityFlowGetsZero(t *testing.T) {
	net, links := line3(t, 0, 100) // zero CPU on the middle node
	f := pipelineFlow(t, net, 0, 1, 2, 5, 1, 1, []network.LinkID{links[0]}, []network.LinkID{links[1]})
	g := pipelineFlow(t, net, 0, 0, 0, 0, 1, 1, nil, nil) // src-host only flow, loads links? none
	_ = g
	x, _, err := SolveStats(net.BaseCapacities(), []Flow{f}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Fatalf("x = %v, want 0 for starved flow", x[0])
	}
}

func TestUtility(t *testing.T) {
	net, links := line3(t, 100, 100)
	f := pipelineFlow(t, net, 0, 1, 2, 1, 1, 2, []network.LinkID{links[0]}, []network.LinkID{links[1]})
	u := Utility([]Flow{f}, []float64{math.E})
	if math.Abs(u-2) > 1e-12 {
		t.Fatalf("Utility = %v, want 2", u)
	}
	if !math.IsInf(Utility([]Flow{f}, []float64{0}), -1) {
		t.Fatal("zero rate must give -Inf utility")
	}
}

func TestPredictSharesByPriority(t *testing.T) {
	// Paper's example: app a (priority 1) occupies NCP n; a new app with
	// priority 2 must see Cpred = 2/3 * C on n and full capacity
	// elsewhere.
	net, links := line3(t, 90, 60)
	pathA := pipelineFlow(t, net, 0, 1, 2, 5, 2, 1, []network.LinkID{links[0]}, []network.LinkID{links[1]}).Path
	fp := FootprintOf(1, []placement.Path{{P: pathA, Rate: 1}})
	if !slices.Equal(fp.NCPs, []network.NCPID{1}) {
		t.Fatalf("footprint NCPs wrong: %v", fp.NCPs)
	}
	if !slices.Contains(fp.Links, links[0]) || !slices.Contains(fp.Links, links[1]) {
		t.Fatalf("footprint links wrong: %v", fp.Links)
	}
	pred := Predict(net.BaseCapacities(), []Footprint{fp}, 2)
	if got := pred.Get(1, resource.CPU); math.Abs(got-60) > 1e-9 {
		t.Fatalf("predicted NCP capacity = %v, want 60", got)
	}
	if got := pred.Link[links[0]]; math.Abs(got-40) > 1e-9 {
		t.Fatalf("predicted link capacity = %v, want 40", got)
	}
	// Unused elements keep full capacity: NCP 0 has no capacity vector
	// entries, so check links of an untouched network instead.
	pred2 := Predict(net.BaseCapacities(), nil, 3)
	if got := pred2.Link[links[0]]; got != 60 {
		t.Fatalf("prediction with no placed apps must keep capacity, got %v", got)
	}
	// The original capacities must be untouched.
	if caps := net.BaseCapacities(); caps.Get(1, resource.CPU) != 90 {
		t.Fatal("Predict mutated input")
	}
}

func TestPredictOrderIndependence(t *testing.T) {
	// Two equal-priority apps on the same node: each sees 1/2 when the
	// other is present, regardless of insertion order.
	net, links := line3(t, 100, 100)
	path := pipelineFlow(t, net, 0, 1, 2, 5, 2, 1, []network.LinkID{links[0]}, []network.LinkID{links[1]}).Path
	fpA := FootprintOf(1, []placement.Path{{P: path}})
	fpB := FootprintOf(1, []placement.Path{{P: path}})
	predForB := Predict(net.BaseCapacities(), []Footprint{fpA}, 1)
	predForA := Predict(net.BaseCapacities(), []Footprint{fpB}, 1)
	if got, want := predForB.Get(1, resource.CPU), 50.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("B sees %v, want %v", got, want)
	}
	if predForA.Get(1, resource.CPU) != predForB.Get(1, resource.CPU) {
		t.Fatal("prediction is order dependent")
	}
}

func TestSolveStats(t *testing.T) {
	net, links := line3(t, 100, 1e6)
	flows := []Flow{
		pipelineFlow(t, net, 0, 1, 2, 10, 1, 1, []network.LinkID{links[0]}, []network.LinkID{links[1]}),
		pipelineFlow(t, net, 0, 1, 2, 10, 1, 3, []network.LinkID{links[0]}, []network.LinkID{links[1]}),
	}
	x, stats, err := SolveStats(net.BaseCapacities(), flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Flows != 2 || stats.Rows == 0 {
		t.Fatalf("stats dimensions = %+v", stats)
	}
	if !stats.Converged || stats.Cycles <= 0 || stats.Cycles > 300 {
		t.Fatalf("stats convergence = %+v", stats)
	}
	// A cold solve is deterministic: a second one repeats the first.
	y, _, err := SolveStats(net.BaseCapacities(), flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := range x {
		if x[f] != y[f] {
			t.Fatalf("second cold solve diverges: %v vs %v", y, x)
		}
	}
}

// Utility returns the objective of problem (4) at rates x:
// sum_f Weight_f * log(x_f). A zero rate yields -Inf, matching the paper's
// strict requirement that every admitted BE app receive a positive rate.
func Utility(flows []Flow, x []float64) float64 {
	u := 0.0
	for f, flow := range flows {
		u += flow.Weight * math.Log(x[f])
	}
	return u
}
