package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// randomInstance builds a random connected network, residual capacities
// for it and a random layered application for property testing. A third
// of the networks are full meshes of 6-16 NCPs whose links share one
// bandwidth, with one to three links pre-loaded (their residual cut), so
// that most NCPs tie on the widest residual width and tree searches stop
// early; the rest are rings with random chords and bandwidths, at full
// capacity.
func randomInstance(t *testing.T, rng *rand.Rand) (*taskgraph.Graph, placement.Pins, *network.Network, *network.Capacities) {
	t.Helper()
	mesh := rng.Intn(3) == 0
	n := 4 + rng.Intn(5)
	if mesh {
		n = 6 + rng.Intn(11)
	}
	nb := network.NewBuilder("prop")
	ids := make([]network.NCPID, n)
	for i := range ids {
		ids[i] = nb.AddNCP(fmt.Sprintf("n%d", i), resource.Vector{resource.CPU: 20 + rng.Float64()*100}, 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case mesh:
				nb.AddLink("m", ids[i], ids[j], 100, 0)
			case j == i+1:
				nb.AddLink("l", ids[i], ids[j], 10+rng.Float64()*100, 0)
			}
		}
	}
	if !mesh {
		// Close the ring, then add random chords.
		nb.AddLink("l", ids[n-1], ids[0], 10+rng.Float64()*100, 0)
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if rng.Float64() < 0.2 {
					nb.AddLink("c", ids[i], ids[j], 10+rng.Float64()*100, 0)
				}
			}
		}
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	caps := net.BaseCapacities()
	if mesh {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			caps.Link[rng.Intn(net.NumLinks())] *= rng.Float64()
		}
	}
	g, err := taskgraph.RandomLayered("prop", taskgraph.RandomConfig{
		Layers:   1 + rng.Intn(3),
		MinWidth: 1,
		MaxWidth: 3,
		EdgeProb: 0.3,
		CTReq: func(r *rand.Rand) resource.Vector {
			return resource.Vector{resource.CPU: 1 + r.Float64()*20}
		},
		TTBits: func(r *rand.Rand) float64 { return 1 + r.Float64()*20 },
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pins := placement.Pins{
		g.Sources()[0]: ids[rng.Intn(n)],
		g.Sinks()[0]:   ids[rng.Intn(n)],
	}
	return g, pins, net, caps
}

// TestPropertyPlacementsValid: on random instances, every algorithm built
// on the shared greedy state produces a structurally valid placement whose
// rate is positive and reproducible from its loads.
func TestPropertyPlacementsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		g, pins, net, caps := randomInstance(t, rng)
		for _, alg := range []placement.Algorithm{
			Sparcle{},
			Sparcle{LiteralNu: true},
			Ordered{AlgName: "ord", FullGamma: true, Order: identityOrderFor(g)},
			Ordered{AlgName: "ord-ncp", Order: identityOrderFor(g)},
		} {
			p, err := alg.Assign(g, pins, net, caps)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, alg.Name(), err)
			}
			if err := p.Validate(pins); err != nil {
				t.Fatalf("trial %d, %s: %v", trial, alg.Name(), err)
			}
			rate := p.Rate(caps)
			if rate <= 0 {
				t.Fatalf("trial %d, %s: rate %v", trial, alg.Name(), rate)
			}
			// Reserving at the bottleneck rate must never drive any
			// residual capacity negative.
			residual := caps.Clone()
			p.Subtract(residual, rate)
			if !residual.NonNegative() {
				t.Fatalf("trial %d, %s: negative residual after full-rate reservation", trial, alg.Name())
			}
		}
	}
}

// TestPropertyDeterministic: the dynamic ranking has no hidden randomness;
// identical inputs yield identical placements.
func TestPropertyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		g, pins, net, caps := randomInstance(t, rng)
		a, err := Sparcle{}.Assign(g, pins, net, caps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Sparcle{}.Assign(g, pins, net, caps)
		if err != nil {
			t.Fatal(err)
		}
		for ct := 0; ct < g.NumCTs(); ct++ {
			if a.Host(taskgraph.CTID(ct)) != b.Host(taskgraph.CTID(ct)) {
				t.Fatalf("trial %d: non-deterministic host for CT %d", trial, ct)
			}
		}
		for tt := 0; tt < g.NumTTs(); tt++ {
			ra, _ := a.Route(taskgraph.TTID(tt))
			rb, _ := b.Route(taskgraph.TTID(tt))
			if len(ra) != len(rb) {
				t.Fatalf("trial %d: non-deterministic route for TT %d", trial, tt)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("trial %d: non-deterministic route for TT %d", trial, tt)
				}
			}
		}
	}
}

// TestPropertyMultiPathRatesDecreaseish: each successive path's rate can
// never exceed the previous residual's best (the first path is the global
// greedy best), and the total reservation stays within base capacities.
func TestPropertyMultiPathFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		g, pins, net, caps := randomInstance(t, rng)
		paths, residual, err := MultiPath(Sparcle{}, g, pins, net, caps, 4)
		if err != nil {
			continue // some instances have no positive-rate path
		}
		if !residual.NonNegative() {
			t.Fatalf("trial %d: negative residual", trial)
		}
		check := caps.Clone()
		for _, p := range paths {
			if p.Rate <= 0 {
				t.Fatalf("trial %d: non-positive path rate", trial)
			}
			p.P.Subtract(check, p.Rate)
		}
		if !check.NonNegative() {
			t.Fatalf("trial %d: aggregate reservation exceeds base capacities", trial)
		}
	}
}

// TestPropertyFrontierSubsetOfReachable: the frontier candidates are
// always a subset of the placed reachable CTs the paper's literal ν uses.
func TestPropertyFrontierSubsetOfReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		g, pins, net, caps := randomInstance(t, rng)
		st, err := newState(g, pins, net, caps)
		if err != nil {
			t.Fatal(err)
		}
		// Inspect the state right after the pinned CTs are placed.
		for ct, host := range st.view.Host {
			if host >= 0 {
				continue
			}
			ct := taskgraph.CTID(ct)
			frontier := st.frontierPlaced(ct, new(frontierWalk))
			for _, other := range frontier {
				if st.p.Host(other) < 0 {
					t.Fatalf("frontier contains unplaced CT %d", other)
				}
				if !g.Reachable(ct, other) {
					t.Fatalf("frontier CT %d not reachable from %d", other, ct)
				}
			}
			st.literalNu = true
			literal := st.nu(ct, new(frontierWalk))
			st.literalNu = false
			if len(frontier) > len(literal) {
				t.Fatalf("frontier (%d) larger than literal ν (%d)", len(frontier), len(literal))
			}
		}
	}
}

// TestPropertyCacheIdentical: the widest-path tree memo never changes a
// result — a cache-disabled run (every bottleneck from a fresh per-pair
// search) places identically, γ for γ. The mesh instances, with most
// links equally wide, are where tree searches stop early.
func TestPropertyCacheIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		g, pins, net, caps := randomInstance(t, rng)
		_, cached, _, err := tracedAssign(t, Sparcle{}, g, pins, net, caps)
		if err != nil {
			t.Fatal(err)
		}
		st, err := newStateCfg(g, pins, net, caps, stateConfig{noCache: true})
		if err != nil {
			t.Fatal(err)
		}
		var fresh []decision
		for i, ct := range st.placed {
			fresh = append(fresh, decision{Step: int64(i), CT: g.CT(ct).Name, Host: net.NCP(st.p.Host(ct)).Name, Pinned: true})
		}
		for st.unplaced > 0 {
			ct, host, gamma, err := st.dynamicRankNext()
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, decision{Step: int64(len(st.placed)), CT: g.CT(ct).Name, Host: net.NCP(host).Name, Gamma: gamma})
			if err := st.place(ct, host); err != nil {
				t.Fatal(err)
			}
		}
		if len(cached) != len(fresh) {
			t.Fatalf("trial %d: %d cached decisions != %d fresh", trial, len(cached), len(fresh))
		}
		for i, d := range fresh {
			cd := cached[i]
			if cd.CT != d.CT || cd.Host != d.Host || cd.Pinned != d.Pinned ||
				math.Float64bits(cd.Gamma) != math.Float64bits(d.Gamma) {
				t.Fatalf("trial %d: decision %d cached %+v != fresh %+v", trial, i, cd, d)
			}
		}
	}
}

func identityOrderFor(g *taskgraph.Graph) func(*taskgraph.Graph) []taskgraph.CTID {
	return func(*taskgraph.Graph) []taskgraph.CTID {
		order := make([]taskgraph.CTID, g.NumCTs())
		for i := range order {
			order[i] = taskgraph.CTID(i)
		}
		return order
	}
}
