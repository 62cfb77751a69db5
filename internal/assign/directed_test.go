package assign

import (
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// TestGammaFollowsTTDirection: on directed links the bottleneck between a
// candidate host and a placed neighbour depends on which way the TT
// flows. A wide uplink a→m with a narrow return m→a must not make m look
// like a 100-rate host for a pipeline that has to come back to a.
func TestGammaFollowsTTDirection(t *testing.T) {
	b := network.NewBuilder("updown")
	a := b.AddNCP("a", resource.Vector{resource.CPU: 100}, 0)
	m := b.AddNCP("m", resource.Vector{resource.CPU: 1000}, 0)
	b.AddDirectedLink("up", a, m, 100, 0)
	b.AddDirectedLink("down", m, a, 5, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	pins := pinEnds(g, a, a)
	worker := taskgraph.CTID(1)

	for _, noCache := range []bool{false, true} {
		st, err := newStateCfg(g, pins, net, net.BaseCapacities(), stateConfig{noCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		// At m the stream goes up at 100 and comes back at 5.
		if gamma, ok := st.gamma(worker, m); !ok || gamma != 5 {
			t.Fatalf("noCache=%v: γ(w, m) = %v, %v; want 5", noCache, gamma, ok)
		}
		if gamma, ok := st.gamma(worker, a); !ok || gamma != 10 {
			t.Fatalf("noCache=%v: γ(w, a) = %v, %v; want 10", noCache, gamma, ok)
		}
	}

	p, decisions, _, err := tracedAssign(t, Sparcle{}, g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	if p.Host(worker) != a {
		t.Fatalf("worker placed on NCP %d, want a", p.Host(worker))
	}
	got := p.Rate(net.BaseCapacities())
	if got != 10 {
		t.Fatalf("placement rate = %v, want 10", got)
	}
	// Algorithm 2's reported γ is the rate the placement achieves.
	if last := decisions[len(decisions)-1]; last.CT != g.CT(worker).Name || last.Gamma != got {
		t.Fatalf("ranked decision %+v, placement rate %v", last, got)
	}
}

// TestPropertyCacheIdenticalDirected is TestPropertyCacheIdentical on
// networks where every pair of neighbours is joined by two directed links
// of unrelated bandwidths: the tree memo (forward and reversed trees
// rooted at the placed end) and the per-pair searches agree γ for γ.
func TestPropertyCacheIdenticalDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(5)
		nb := network.NewBuilder("dirprop")
		ids := make([]network.NCPID, n)
		for i := range ids {
			ids[i] = nb.AddNCP("n", resource.Vector{resource.CPU: 20 + rng.Float64()*100}, 0)
		}
		duplex := func(i, j int) {
			nb.AddDirectedLink("f", ids[i], ids[j], 10+rng.Float64()*100, 0)
			nb.AddDirectedLink("b", ids[j], ids[i], 10+rng.Float64()*100, 0)
		}
		for i := 0; i < n; i++ {
			duplex(i, (i+1)%n)
		}
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if rng.Float64() < 0.2 {
					duplex(i, j)
				}
			}
		}
		net, err := nb.Build()
		if err != nil {
			t.Fatal(err)
		}
		if net.Symmetric() {
			t.Fatal("directed network reports itself symmetric")
		}
		g, err := taskgraph.RandomLayered("dirprop", taskgraph.RandomConfig{
			Layers: 1 + rng.Intn(3), MinWidth: 1, MaxWidth: 3, EdgeProb: 0.3,
			CTReq:  func(r *rand.Rand) resource.Vector { return resource.Vector{resource.CPU: 1 + r.Float64()*20} },
			TTBits: func(r *rand.Rand) float64 { return 1 + r.Float64()*20 },
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pins := placement.Pins{g.Sources()[0]: ids[rng.Intn(n)], g.Sinks()[0]: ids[rng.Intn(n)]}
		caps := net.BaseCapacities()

		type pick struct {
			ct    taskgraph.CTID
			host  network.NCPID
			gamma float64
		}
		run := func(noCache bool) []pick {
			st, err := newStateCfg(g, pins, net, caps, stateConfig{noCache: noCache})
			if err != nil {
				t.Fatal(err)
			}
			var out []pick
			for st.unplaced > 0 {
				ct, host, gamma, err := st.dynamicRankNext()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, pick{ct, host, gamma})
				if err := st.place(ct, host); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		cached, fresh := run(false), run(true)
		if len(cached) != len(fresh) {
			t.Fatalf("trial %d: %d cached decisions != %d fresh", trial, len(cached), len(fresh))
		}
		for i, d := range fresh {
			if cd := cached[i]; cd.ct != d.ct || cd.host != d.host || math.Float64bits(cd.gamma) != math.Float64bits(d.gamma) {
				t.Fatalf("trial %d: decision %d cached %+v != fresh %+v", trial, i, cd, d)
			}
		}
	}
}
