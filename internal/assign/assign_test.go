package assign

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/avail"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

func mustLinear(t *testing.T, reqs []float64, bits []float64) *taskgraph.Graph {
	t.Helper()
	vecs := make([]resource.Vector, len(reqs))
	for i, r := range reqs {
		vecs[i] = resource.Vector{resource.CPU: r}
	}
	g, err := taskgraph.Linear("lin", vecs, bits)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pinEnds(g *taskgraph.Graph, src, snk network.NCPID) placement.Pins {
	pins := placement.Pins{}
	for _, s := range g.Sources() {
		pins[s] = src
	}
	for _, s := range g.Sinks() {
		pins[s] = snk
	}
	return pins
}

func TestWidestPathDirect(t *testing.T) {
	b := network.NewBuilder("w")
	a := b.AddNCP("a", nil, 0)
	c := b.AddNCP("c", nil, 0)
	d := b.AddNCP("d", nil, 0)
	// Two routes a->d: direct narrow link (bw 10) vs two-hop wide (bw 100).
	direct := b.AddLink("direct", a, d, 10, 0)
	h1 := b.AddLink("h1", a, c, 100, 0)
	h2 := b.AddLink("h2", c, d, 100, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	caps := net.BaseCapacities()
	loads := make([]float64, net.NumLinks())

	route, bottleneck, ok := WidestPath(net, caps, loads, 1, a, d)
	if !ok {
		t.Fatal("path must exist")
	}
	if len(route) != 2 || route[0] != h1 || route[1] != h2 {
		t.Fatalf("route = %v, want the wide two-hop path", route)
	}
	if bottleneck != 100 {
		t.Fatalf("bottleneck = %v, want 100", bottleneck)
	}

	// Load the wide path heavily: the direct link becomes best.
	loads[h1] = 99
	route, bottleneck, ok = WidestPath(net, caps, loads, 1, a, d)
	if !ok || len(route) != 1 || route[0] != direct {
		t.Fatalf("route = %v, want direct", route)
	}
	if bottleneck != 10 {
		t.Fatalf("bottleneck = %v, want 10", bottleneck)
	}
}

func TestWidestPathSameNode(t *testing.T) {
	b := network.NewBuilder("w")
	a := b.AddNCP("a", nil, 0)
	b.AddNCP("c", nil, 0)
	net, _ := b.Build()
	route, bottleneck, ok := WidestPath(net, net.BaseCapacities(), make([]float64, 0), 5, a, a)
	if !ok || route != nil || !math.IsInf(bottleneck, 1) {
		t.Fatalf("same-node: %v %v %v", route, bottleneck, ok)
	}
}

func TestWidestPathUnreachable(t *testing.T) {
	b := network.NewBuilder("w")
	a := b.AddNCP("a", nil, 0)
	c := b.AddNCP("c", nil, 0)
	net, _ := b.Build()
	if _, _, ok := WidestPath(net, net.BaseCapacities(), nil, 1, a, c); ok {
		t.Fatal("disconnected NCPs must be unreachable")
	}
}

func TestWidestPathMatchesBruteForce(t *testing.T) {
	// Exhaustive check on random small networks: the returned bottleneck
	// must equal the max over all simple paths of the min link weight.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(3)
		b := network.NewBuilder("r")
		ids := make([]network.NCPID, n)
		for i := range ids {
			ids[i] = b.AddNCP("n", nil, 0)
		}
		type edge struct{ a, b int }
		var edges []edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					b.AddLink("l", ids[i], ids[j], 1+rng.Float64()*99, 0)
					edges = append(edges, edge{i, j})
				}
			}
		}
		if len(edges) == 0 {
			continue
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		caps := net.BaseCapacities()
		loads := make([]float64, net.NumLinks())
		for l := range loads {
			loads[l] = rng.Float64() * 20
		}
		bits := 1 + rng.Float64()*10

		// Brute force best bottleneck via DFS over simple paths.
		var dfs func(v, to network.NCPID, visited []bool, minW float64) float64
		dfs = func(v, to network.NCPID, visited []bool, minW float64) float64 {
			if v == to {
				return minW
			}
			visited[v] = true
			best := math.Inf(-1)
			for _, l := range net.Incident(v) {
				u := net.Other(l, v)
				if visited[u] {
					continue
				}
				w := caps.Link[l] / (bits + loads[l])
				if got := dfs(u, to, visited, math.Min(minW, w)); got > best {
					best = got
				}
			}
			visited[v] = false
			return best
		}
		from, to := ids[0], ids[n-1]
		want := dfs(from, to, make([]bool, n), math.Inf(1))
		_, got, ok := WidestPath(net, caps, loads, bits, from, to)
		if math.IsInf(want, -1) {
			if ok {
				t.Fatalf("trial %d: found path where brute force found none", trial)
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: no path found but brute force found %v", trial, want)
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: bottleneck %v, brute force %v", trial, got, want)
		}
	}
}

// lineNet builds a 4-NCP chain with given CPU capacities and bandwidths.
func lineNet(t *testing.T, cpus []float64, bws []float64) *network.Network {
	t.Helper()
	b := network.NewBuilder("line")
	ids := make([]network.NCPID, len(cpus))
	for i, c := range cpus {
		ids[i] = b.AddNCP("n", resource.Vector{resource.CPU: c}, 0)
	}
	for i, bw := range bws {
		b.AddLink("l", ids[i], ids[i+1], bw, 0)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSparcleSimplePipeline(t *testing.T) {
	// Two processing CTs, plenty of bandwidth: they must spread across the
	// two capable middle NCPs rather than stack on one.
	g := mustLinear(t, []float64{10, 10}, []float64{1, 1, 1})
	net := lineNet(t, []float64{0, 100, 100, 0}, []float64{1e6, 1e6, 1e6})
	pins := pinEnds(g, 0, 3)
	p, err := Sparcle{}.Assign(g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(pins); err != nil {
		t.Fatal(err)
	}
	rate := p.Rate(net.BaseCapacities())
	// Optimal: one CT per middle NCP, rate = 100/10 = 10.
	if math.Abs(rate-10) > 1e-9 {
		t.Fatalf("rate = %v, want 10 (placement %v)", rate, p)
	}
}

func TestSparcleColocatesUnderTightBandwidth(t *testing.T) {
	// Huge transports, tight links: SPARCLE must co-locate the processing
	// chain on one NCP to avoid the narrow links, even if CPU is shared.
	g := mustLinear(t, []float64{10, 10}, []float64{1, 1000, 1})
	net := lineNet(t, []float64{0, 100, 100, 0}, []float64{100, 100, 100})
	pins := pinEnds(g, 0, 3)
	p, err := Sparcle{}.Assign(g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	ct1, ct2 := g.TopoOrder()[1], g.TopoOrder()[2]
	if p.Host(ct1) != p.Host(ct2) {
		t.Fatalf("expected co-location under tight bandwidth, got %v and %v", p.Host(ct1), p.Host(ct2))
	}
	// Co-located: rate = min(100/1 on edge links, 100/20 CPU) = 5.
	if got := p.Rate(net.BaseCapacities()); math.Abs(got-5) > 1e-9 {
		t.Fatalf("rate = %v, want 5", got)
	}
}

func TestSparcleRespectsResidualCapacities(t *testing.T) {
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	net := lineNet(t, []float64{0, 100, 50, 0}, []float64{1e3, 1e3, 1e3})
	pins := pinEnds(g, 0, 3)
	caps := net.BaseCapacities()
	// Exhaust NCP1: the single processing CT must land on NCP2.
	caps.SubtractNCP(1, resource.Vector{resource.CPU: 100}, 1)
	p, err := Sparcle{}.Assign(g, pins, net, caps)
	if err != nil {
		t.Fatal(err)
	}
	ct := g.TopoOrder()[1]
	if p.Host(ct) != 2 {
		t.Fatalf("CT placed on %d, want 2", p.Host(ct))
	}
}

func TestSparcleInfeasibleDisconnected(t *testing.T) {
	b := network.NewBuilder("split")
	a := b.AddNCP("a", resource.Vector{resource.CPU: 10}, 0)
	c := b.AddNCP("c", resource.Vector{resource.CPU: 10}, 0)
	net, err := b.Build() // no links
	if err != nil {
		t.Fatal(err)
	}
	g := mustLinear(t, []float64{1}, []float64{1, 1})
	pins := pinEnds(g, a, c)
	_, err = Sparcle{}.Assign(g, pins, net, net.BaseCapacities())
	if !errors.Is(err, placement.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSparcleRequiresPinnedSourcesAndSinks(t *testing.T) {
	g := mustLinear(t, []float64{1}, []float64{1, 1})
	net := lineNet(t, []float64{10, 10}, []float64{100})
	if _, err := (Sparcle{}).Assign(g, placement.Pins{}, net, net.BaseCapacities()); err == nil {
		t.Fatal("missing pins must error")
	}
	pins := placement.Pins{g.Sources()[0]: 0}
	if _, err := (Sparcle{}).Assign(g, pins, net, net.BaseCapacities()); err == nil {
		t.Fatal("missing sink pin must error")
	}
}

// bruteForceBest exhaustively searches all CT assignments (with TTs routed
// by widest path in TT order) and returns the best achievable rate.
func bruteForceBest(t *testing.T, g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) float64 {
	t.Helper()
	var free []taskgraph.CTID
	for ct := 0; ct < g.NumCTs(); ct++ {
		if _, ok := pins[taskgraph.CTID(ct)]; !ok {
			free = append(free, taskgraph.CTID(ct))
		}
	}
	best := 0.0
	n := net.NumNCPs()
	assignment := make([]network.NCPID, len(free))
	var recurse func(k int)
	recurse = func(k int) {
		if k == len(free) {
			p := placement.New(g, net)
			for ct, host := range pins {
				if err := p.PlaceCT(ct, host); err != nil {
					t.Fatal(err)
				}
			}
			for i, ct := range free {
				if err := p.PlaceCT(ct, assignment[i]); err != nil {
					t.Fatal(err)
				}
			}
			loads := make([]float64, net.NumLinks())
			for tt := 0; tt < g.NumTTs(); tt++ {
				e := g.TT(taskgraph.TTID(tt))
				route, _, ok := WidestPath(net, caps, loads, e.Bits, p.Host(e.From), p.Host(e.To))
				if !ok {
					return
				}
				if err := p.PlaceTT(taskgraph.TTID(tt), route); err != nil {
					t.Fatal(err)
				}
				for _, l := range route {
					loads[l] += e.Bits
				}
			}
			if r := p.Rate(caps); r > best {
				best = r
			}
			return
		}
		for j := 0; j < n; j++ {
			assignment[k] = network.NCPID(j)
			recurse(k + 1)
		}
	}
	recurse(0)
	return best
}

func TestSparcleNearOptimalOnRandomInstances(t *testing.T) {
	// SPARCLE is a heuristic; on small random instances it must achieve a
	// large fraction of the exhaustive optimum, and never exceed it.
	rng := rand.New(rand.NewSource(42))
	total, optTotal := 0.0, 0.0
	for trial := 0; trial < 30; trial++ {
		nNCP := 3 + rng.Intn(2)
		b := network.NewBuilder("rand")
		ids := make([]network.NCPID, nNCP)
		for i := range ids {
			ids[i] = b.AddNCP("n", resource.Vector{resource.CPU: 50 + rng.Float64()*100}, 0)
		}
		// Ring + one chord for route diversity.
		for i := 0; i < nNCP; i++ {
			b.AddLink("l", ids[i], ids[(i+1)%nNCP], 50+rng.Float64()*100, 0)
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		nCT := 2 + rng.Intn(2)
		reqs := make([]float64, nCT)
		for i := range reqs {
			reqs[i] = 5 + rng.Float64()*20
		}
		bits := make([]float64, nCT+1)
		for i := range bits {
			bits[i] = 1 + rng.Float64()*30
		}
		g := mustLinear(t, reqs, bits)
		pins := pinEnds(g, ids[0], ids[nNCP-1])
		caps := net.BaseCapacities()

		p, err := Sparcle{}.Assign(g, pins, net, caps)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := p.Rate(caps)
		opt := bruteForceBest(t, g, pins, net, caps)
		if got > opt*(1+1e-9) {
			t.Fatalf("trial %d: SPARCLE rate %v exceeds exhaustive optimum %v", trial, got, opt)
		}
		total += got
		optTotal += opt
	}
	if ratio := total / optTotal; ratio < 0.85 {
		t.Fatalf("aggregate SPARCLE/optimal ratio = %v, want >= 0.85", ratio)
	}
}

func TestOrderedAlgorithm(t *testing.T) {
	g := mustLinear(t, []float64{10, 20}, []float64{1, 1, 1})
	net := lineNet(t, []float64{0, 100, 100, 0}, []float64{1e6, 1e6, 1e6})
	pins := pinEnds(g, 0, 3)
	alg := Ordered{
		AlgName: "GS",
		Order: func(g *taskgraph.Graph) []taskgraph.CTID {
			order := make([]taskgraph.CTID, g.NumCTs())
			for i := range order {
				order[i] = taskgraph.CTID(i)
			}
			return order
		},
	}
	if alg.Name() != "GS" {
		t.Fatal("name wrong")
	}
	p, err := alg.Assign(g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(pins); err != nil {
		t.Fatal(err)
	}
	if got := p.Rate(net.BaseCapacities()); got <= 0 {
		t.Fatalf("rate = %v", got)
	}
	// Short order must error.
	bad := Ordered{AlgName: "bad", Order: func(*taskgraph.Graph) []taskgraph.CTID { return nil }}
	if _, err := bad.Assign(g, pins, net, net.BaseCapacities()); err == nil {
		t.Fatal("want error for short order")
	}
}

func TestMultiPath(t *testing.T) {
	// Two disjoint middle NCPs: the first path saturates one, the second
	// uses the other.
	b := network.NewBuilder("par")
	src := b.AddNCP("src", nil, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 50}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("s1", src, m1, 1e6, 0)
	b.AddLink("s2", src, m2, 1e6, 0)
	b.AddLink("m1k", m1, snk, 1e6, 0)
	b.AddLink("m2k", m2, snk, 1e6, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	pins := pinEnds(g, src, snk)

	paths, residual, err := MultiPath(Sparcle{}, g, pins, net, net.BaseCapacities(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if math.Abs(paths[0].Rate-10) > 1e-9 || math.Abs(paths[1].Rate-5) > 1e-9 {
		t.Fatalf("path rates = %v, %v; want 10, 5", paths[0].Rate, paths[1].Rate)
	}
	// All CPU consumed.
	if residual.Get(m1, resource.CPU) > 1e-9 || residual.Get(m2, resource.CPU) > 1e-9 {
		t.Fatalf("residual CPU = %v / %v", residual.NCP(m1), residual.NCP(m2))
	}
	// maxPaths must bound the count.
	one, _, err := MultiPath(Sparcle{}, g, pins, net, net.BaseCapacities(), 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("maxPaths=1: %d paths, err %v", len(one), err)
	}
	if _, _, err := MultiPath(Sparcle{}, g, pins, net, net.BaseCapacities(), 0); err == nil {
		t.Fatal("maxPaths=0 must error")
	}
}

func TestMultiPathNoCapacity(t *testing.T) {
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	net := lineNet(t, []float64{0, 0, 0, 0}, []float64{1e3, 1e3, 1e3})
	pins := pinEnds(g, 0, 3)
	_, _, err := MultiPath(Sparcle{}, g, pins, net, net.BaseCapacities(), 3)
	if !errors.Is(err, ErrNoMorePaths) {
		t.Fatalf("err = %v, want ErrNoMorePaths", err)
	}
}

func TestMultiPathDoesNotMutateCaps(t *testing.T) {
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	net := lineNet(t, []float64{0, 100, 100, 0}, []float64{1e3, 1e3, 1e3})
	pins := pinEnds(g, 0, 3)
	caps := net.BaseCapacities()
	if _, _, err := MultiPath(Sparcle{}, g, pins, net, caps, 4); err != nil {
		t.Fatal(err)
	}
	if caps.Get(1, resource.CPU) != 100 {
		t.Fatal("MultiPath mutated caller capacities")
	}
}

func TestWidestPathRespectsDirection(t *testing.T) {
	// a -> c one way only; c to a must go around via d.
	b := network.NewBuilder("dir")
	a := b.AddNCP("a", nil, 0)
	c := b.AddNCP("c", nil, 0)
	d := b.AddNCP("d", nil, 0)
	b.AddDirectedLink("ac", a, c, 100, 0)
	around1 := b.AddLink("cd", c, d, 10, 0)
	around2 := b.AddLink("da", d, a, 10, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	caps := net.BaseCapacities()
	loads := make([]float64, net.NumLinks())
	route, bottleneck, ok := WidestPath(net, caps, loads, 1, c, a)
	if !ok {
		t.Fatal("path must exist via d")
	}
	if len(route) != 2 || route[0] != around1 || route[1] != around2 {
		t.Fatalf("route = %v, want [cd da]", route)
	}
	if bottleneck != 10 {
		t.Fatalf("bottleneck = %v", bottleneck)
	}
	// Forward direction uses the wide directed link.
	route, bottleneck, ok = WidestPath(net, caps, loads, 1, a, c)
	if !ok || len(route) != 1 || bottleneck != 100 {
		t.Fatalf("forward route = %v bottleneck %v", route, bottleneck)
	}
}

func TestAssignOverDirectedNetwork(t *testing.T) {
	// Asymmetric bandwidth: wide uplink a->m, narrow return path.
	b := network.NewBuilder("dir")
	a := b.AddNCP("a", nil, 0)
	m := b.AddNCP("m", resource.Vector{resource.CPU: 100}, 0)
	c := b.AddNCP("c", nil, 0)
	b.AddDirectedLink("up", a, m, 100, 0)
	b.AddDirectedLink("down", m, a, 5, 0)
	b.AddLink("mc", m, c, 100, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustLinear(t, []float64{10}, []float64{10, 1})
	pins := pinEnds(g, a, c)
	p, err := Sparcle{}.Assign(g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(pins); err != nil {
		t.Fatal(err)
	}
	// rate = min(CPU 100/10, up 100/10, mc 100/1) = 10.
	if got := p.Rate(net.BaseCapacities()); math.Abs(got-10) > 1e-9 {
		t.Fatalf("rate = %v, want 10", got)
	}
}

// TestSpanRecordsEveryDecision: the span bound to an assignment records
// one decision per CT, pinned placements first, each agreeing with the
// placement and every ranked pick carrying its γ.
func TestSpanRecordsEveryDecision(t *testing.T) {
	g := mustLinear(t, []float64{10, 20}, []float64{1, 1, 1})
	net := lineNet(t, []float64{0, 100, 100, 0}, []float64{1e3, 1e3, 1e3})
	pins := pinEnds(g, 0, 3)
	p, decisions, _, err := tracedAssign(t, Sparcle{}, g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != g.NumCTs() {
		t.Fatalf("recorded %d decisions, want %d", len(decisions), g.NumCTs())
	}
	pinned, ranked := 0, 0
	for i, d := range decisions {
		if d.Step != int64(i) {
			t.Fatalf("decision %d has step %d", i, d.Step)
		}
		if d.Host != net.NCP(p.Host(ctIDByName(g, d.CT))).Name {
			t.Fatalf("decision %+v disagrees with placement", d)
		}
		if d.Pinned {
			pinned++
		} else {
			ranked++
			if d.Gamma <= 0 {
				t.Fatalf("ranked decision without gamma: %+v", d)
			}
		}
	}
	if pinned != 2 || ranked != 2 {
		t.Fatalf("pinned=%d ranked=%d, want 2/2", pinned, ranked)
	}
	// Pinned decisions come first.
	if !decisions[0].Pinned || !decisions[1].Pinned {
		t.Fatal("pinned decisions must be reported first")
	}
}

// diverseNet builds a network where the plain multi-path iteration reuses
// a wide shared uplink while the diverse variant pays for the narrow one:
// src has a wide (100) and a narrow (20) uplink to a hub that fans out to
// two workers feeding the sink.
func diverseNet(t *testing.T) (*network.Network, *taskgraph.Graph, placement.Pins) {
	t.Helper()
	b := network.NewBuilder("div")
	src := b.AddNCP("src", nil, 0)
	hub := b.AddNCP("hub", nil, 0.0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 100}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("wide", src, hub, 100, 0.05)
	b.AddLink("narrow", src, hub, 20, 0.05)
	b.AddLink("h1", hub, m1, 1e6, 0.05)
	b.AddLink("h2", hub, m2, 1e6, 0.05)
	b.AddLink("k1", m1, snk, 1e6, 0.05)
	b.AddLink("k2", m2, snk, 1e6, 0.05)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	return net, g, pinEnds(g, src, snk)
}

func TestMultiPathDiverseAvoidsSharedLinks(t *testing.T) {
	net, g, pins := diverseNet(t)
	wide, _ := func() (network.LinkID, bool) {
		for l := 0; l < net.NumLinks(); l++ {
			if net.Link(network.LinkID(l)).Name == "wide" {
				return network.LinkID(l), true
			}
		}
		return -1, false
	}()

	plain, _, err := MultiPath(Sparcle{}, g, pins, net, net.BaseCapacities(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 2 {
		t.Fatalf("plain paths = %d", len(plain))
	}
	// Plain: both paths ride the wide uplink (residual 90 > narrow 20).
	if plain[0].P.LinkLoad(wide) == 0 || plain[1].P.LinkLoad(wide) == 0 {
		t.Fatalf("expected both plain paths on the wide uplink")
	}

	diverse, _, err := MultiPathDiverse(Sparcle{}, g, pins, net, net.BaseCapacities(), 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverse) != 2 {
		t.Fatalf("diverse paths = %d", len(diverse))
	}
	if diverse[0].P.LinkLoad(wide) == 0 {
		t.Fatal("first diverse path should still take the wide uplink")
	}
	if diverse[1].P.LinkLoad(wide) != 0 {
		t.Fatal("second diverse path should avoid the wide uplink")
	}

	// The diversity translates into strictly better at-least-one
	// availability (disjoint uplinks).
	availOf := func(paths []placement.Path) float64 {
		fp := avail.FailProbs{}
		var aps []avail.Path
		for _, p := range paths {
			elems := p.P.UsedElements()
			ints := make([]int, len(elems))
			for i, e := range elems {
				ints[i] = int(e)
				if pf := e.FailProb(net); pf > 0 {
					fp[int(e)] = pf
				}
			}
			aps = append(aps, avail.Path{Elements: ints, Rate: p.Rate})
		}
		a, err := avail.AtLeastOne(aps, fp)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if ap, ad := availOf(plain), availOf(diverse); ad <= ap {
		t.Fatalf("diverse availability %v not above plain %v", ad, ap)
	}
}

func TestMultiPathDiverseValidation(t *testing.T) {
	net, g, pins := diverseNet(t)
	if _, _, err := MultiPathDiverse(Sparcle{}, g, pins, net, net.BaseCapacities(), 2, 0); err == nil {
		t.Fatal("bias 0 must error")
	}
	if _, _, err := MultiPathDiverse(Sparcle{}, g, pins, net, net.BaseCapacities(), 2, 1.5); err == nil {
		t.Fatal("bias > 1 must error")
	}
	// Bias 1 must behave exactly like MultiPath.
	a, _, err := MultiPathDiverse(Sparcle{}, g, pins, net, net.BaseCapacities(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := MultiPath(Sparcle{}, g, pins, net, net.BaseCapacities(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0].Rate != b[0].Rate {
		t.Fatalf("bias 1 differs from plain: %v vs %v", a, b)
	}
}
