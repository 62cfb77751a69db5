package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
	"sparcle/internal/workload"
)

// mesh16 is testdata/mesh16.json built in place: 16 NCPs of 3000 cpu, a
// 1000-bandwidth link between every pair. link[a][b] is the a-b link.
func mesh16(tb testing.TB) (*network.Network, [][]network.LinkID) { return meshN(tb, 16) }

// meshN is the n-NCP full mesh of mesh16's elements.
func meshN(tb testing.TB, n int) (*network.Network, [][]network.LinkID) {
	tb.Helper()
	b := network.NewBuilder(fmt.Sprintf("mesh%d", n))
	ids := make([]network.NCPID, n)
	for i := range ids {
		ids[i] = b.AddNCP(fmt.Sprintf("n%02d", i), resource.Vector{resource.CPU: 3000}, 0)
	}
	link := make([][]network.LinkID, n)
	for i := range link {
		link[i] = make([]network.LinkID, n)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			l := b.AddLink(fmt.Sprintf("l%02d-%02d", i, j), ids[i], ids[j], 1000, 0.01)
			link[i][j], link[j][i] = l, l
		}
	}
	net, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return net, link
}

// meshPipeline draws one linear pipeline the way the repository benchmark's
// generator does (2-8 work CTs, bounded-Pareto requirements, bits and
// priority scaled to 2% of an element) and places every CT on a random
// NCP, each TT on the direct link between its end hosts.
func meshPipeline(tb testing.TB, rng *rand.Rand, net *network.Network, link [][]network.LinkID) Flow {
	tb.Helper()
	pareto := func(lo, hi float64) float64 { return workload.BoundedPareto(rng, 1.3, lo, hi) }
	gb := taskgraph.NewBuilder("p")
	hosts := []int{rng.Intn(len(link))}
	prev := gb.AddCT("in", nil)
	for i, n := 0, max(2, int(pareto(1, 8)+0.5)); i <= n; i++ {
		var req resource.Vector
		if i < n { // the last CT is the sink
			req = resource.Vector{resource.CPU: 60 * pareto(1, 50)}
		}
		ct := gb.AddCT(fmt.Sprintf("c%d", i), req)
		gb.AddTT(fmt.Sprintf("t%d", i), prev, ct, 20*pareto(1, 50))
		hosts = append(hosts, rng.Intn(len(link)))
		prev = ct
	}
	g, err := gb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p := placement.New(g, net)
	for i, h := range hosts {
		if err := p.PlaceCT(taskgraph.CTID(i), network.NCPID(h)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i+1 < len(hosts); i++ {
		var route []network.LinkID
		if a, b := hosts[i], hosts[i+1]; a != b {
			route = []network.LinkID{link[a][b]}
		}
		if err := p.PlaceTT(taskgraph.TTID(i), route); err != nil {
			tb.Fatal(err)
		}
	}
	return Flow{Weight: pareto(1, 10), Path: p}
}

// BenchmarkSolverWarmChurn is the microbench twin of the admission
// service's warm BE solve: a Solver holding K pipeline flows on mesh16,
// each iteration withdrawing the oldest flow, admitting a fresh one and
// re-solving warm. cycles/op, rowevals/op and newton/op count the work
// behind ns/op. K=4 is the place_bound-sized solve: four flows, on most
// sweeps on more priced rows than flows, where the gate skips Newton and
// the skip must cost nothing.
func BenchmarkSolverWarmChurn(b *testing.B) {
	for _, k := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			net, link := mesh16(b)
			s := NewSolver(net.BaseCapacities(), Options{})
			// Flows are drawn ahead so graph building stays out of the loop.
			pool := make([]Flow, 512)
			for i := range pool {
				pool[i] = meshPipeline(b, rng, net, link)
			}
			live, err := s.AddFlows(pool[:k])
			if err != nil {
				b.Fatal(err)
			}
			dst, _, err := s.Solve(nil)
			if err != nil {
				b.Fatal(err)
			}
			var cycles, evals, steps int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RemoveFlows(live[:1])
				ids, err := s.AddFlows(pool[(k+i)%len(pool) : (k+i)%len(pool)+1])
				if err != nil {
					b.Fatal(err)
				}
				live = append(live[1:], ids[0])
				var st Stats
				if dst, st, err = s.Solve(dst); err != nil {
					b.Fatal(err)
				}
				cycles += st.Cycles
				evals += st.RowEvals
				steps += st.NewtonSteps
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
			b.ReportMetric(float64(evals)/float64(b.N), "rowevals/op")
			b.ReportMetric(float64(steps)/float64(b.N), "newton/op")
		})
	}
}
