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
	"sparcle/internal/workload"
)

// benchLarge is the large random-DAG case the evaluation-core speedup is
// measured on: ~30 CTs over a 24-NCP mesh.
func benchLarge(b *testing.B) *workload.Instance {
	b.Helper()
	inst, err := workload.Generate(workload.GenConfig{
		Shape:    workload.ShapeRandom,
		Topology: workload.TopoMesh,
		Regime:   workload.Balanced,
		NumNCPs:  24,
		NumCTs:   12,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkDynamicRank measures the full Algorithm 2 assignment with the
// memo-less per-pair Dijkstra (uncached) and with the widest-path tree
// memo (serial). "large" is the random-DAG case; "mesh64" is shaped
// like the place_bound benchmark workload, one op assigning one of 16
// seeded 2–8-CT linear pipelines on the homogeneous 64-NCP full mesh.
func BenchmarkDynamicRank(b *testing.B) {
	type app struct {
		g    *taskgraph.Graph
		pins placement.Pins
	}
	large := benchLarge(b)
	mesh := goldenMesh64(b)
	rng := rand.New(rand.NewSource(1))
	var meshApps []app
	for a := 0; a < 16; a++ {
		g, src, snk := linearApp(b, rng, mesh, a)
		meshApps = append(meshApps, app{g, pinEnds(g, src, snk)})
	}
	for _, c := range []struct {
		name string
		net  *network.Network
		apps []app
	}{
		{"large", large.Net, []app{{large.Graph, large.Pins}}},
		{"mesh64", mesh, meshApps},
	} {
		caps := c.net.BaseCapacities()
		run := func(b *testing.B, cfg stateConfig) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := c.apps[i%len(c.apps)]
				st, err := newStateCfg(a.g, a.pins, c.net, caps, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for st.unplaced > 0 {
					ct, host, _, err := st.dynamicRankNext()
					if err != nil {
						b.Fatal(err)
					}
					if err := st.place(ct, host); err != nil {
						b.Fatal(err)
					}
				}
				st.release()
			}
		}
		b.Run(c.name+"/uncached", func(b *testing.B) { run(b, stateConfig{noCache: true}) })
		b.Run(c.name+"/serial", func(b *testing.B) { run(b, stateConfig{}) })
	}
}

// BenchmarkGamma measures one ranking iteration's worth of γ evaluations
// (every unplaced CT against every NCP) right after the pinned placements,
// with and without the widest-path tree memo.
func BenchmarkGamma(b *testing.B) {
	inst := benchLarge(b)
	caps := inst.Net.BaseCapacities()
	run := func(b *testing.B, cfg stateConfig) {
		st, err := newStateCfg(inst.Graph, inst.Pins, inst.Net, caps, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var cts []taskgraph.CTID
		for ct, host := range st.view.Host {
			if host < 0 {
				cts = append(cts, taskgraph.CTID(ct))
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ct := range cts {
				for j := 0; j < st.net.NumNCPs(); j++ {
					st.gamma(ct, network.NCPID(j))
				}
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, stateConfig{noCache: true}) })
	b.Run("cached", func(b *testing.B) { run(b, stateConfig{}) })
}

// rateWithMap is the map-based NCP-rate arithmetic the dense evaluation
// core replaced, retained verbatim as the dense-vs-map ablation reference.
func rateWithMap(cap, base, extra resource.Vector) float64 {
	rate := math.Inf(1)
	consider := func(k resource.Kind) {
		demand := base[k] + extra[k]
		if demand <= 0 {
			return
		}
		if r := cap[k] / demand; r < rate {
			rate = r
		}
	}
	for k := range base {
		consider(k)
	}
	for k := range extra {
		if _, seen := base[k]; !seen {
			consider(k)
		}
	}
	return rate
}

// BenchmarkRateWith compares the dense NCP-rate arithmetic against the
// map-based form it replaced, on a representative 4-kind vector.
func BenchmarkRateWith(b *testing.B) {
	capV := resource.Vector{resource.CPU: 100, resource.Memory: 64, "gpu": 2, "disk": 500}
	baseV := resource.Vector{resource.CPU: 30, resource.Memory: 16, "gpu": 1}
	extraV := resource.Vector{resource.CPU: 5, resource.Memory: 2, "disk": 20}
	kinds := resource.Kinds{resource.CPU, "disk", "gpu", resource.Memory}
	dense := func(v resource.Vector) resource.Dense {
		d := make(resource.Dense, len(kinds))
		kinds.DenseInto(d, v)
		return d
	}
	capD, baseD, extraD := dense(capV), dense(baseV), dense(extraV)
	if math.Float64bits(resource.RateDense(capD, baseD, extraD)) != math.Float64bits(rateWithMap(capV, baseV, extraV)) {
		b.Fatal("dense and map rates disagree")
	}
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rateWithMap(capV, baseV, extraV)
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resource.RateDense(capD, baseD, extraD)
		}
	})
}

// BenchmarkWidestTree compares one full single-source tree build against
// the per-pair searches it amortizes (source to every other NCP), and
// reports the NCPs a tree build expands (pops/tree) and a route search
// expands (pops/route). A tree stops once every NCP holds the width just
// popped, and a route once no relaxation can succeed, so the cases differ
// in how many NCPs share the widest residual width: "large" is the
// random-DAG case's network; "mesh64" the idle 64-NCP full mesh, where
// every NCP does; "mesh64-loaded" that mesh with a pipeline's worth of
// links loaded, as the place_bound workload's trees see it; and
// "mesh64-hetero" a 64-NCP full mesh with link bandwidths spread
// 500-1500, where hardly any share and the stop rarely fires.
func BenchmarkWidestTree(b *testing.B) {
	type treeCase struct {
		name  string
		net   *network.Network
		loads []float64
	}
	idle := func(name string, net *network.Network) treeCase {
		return treeCase{name, net, make([]float64, net.NumLinks())}
	}
	mesh := goldenMesh64(b)
	loaded := idle("mesh64-loaded", mesh)
	rng := rand.New(rand.NewSource(4))
	for _, l := range rng.Perm(mesh.NumLinks())[:6] {
		loaded.loads[l] = 20 + 980*rng.Float64()
	}
	for _, a := range mesh.OutArcs(0)[:2] {
		loaded.loads[a.Link] = 20 + 980*rng.Float64()
	}
	hb := network.NewBuilder("hetero64")
	for i := 0; i < 64; i++ {
		hb.AddNCP(fmt.Sprintf("n%d", i), resource.Vector{resource.CPU: 3000}, 0)
	}
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			hb.AddLink("l", network.NCPID(i), network.NCPID(j), 500+1000*rng.Float64(), 0)
		}
	}
	hetero, err := hb.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []treeCase{
		idle("large", benchLarge(b).Net),
		idle("mesh64", mesh),
		loaded,
		idle("mesh64-hetero", hetero),
	} {
		caps := c.net.BaseCapacities()
		b.Run(c.name+"/per-pair-all-targets", func(b *testing.B) {
			b.ReportAllocs()
			var s widestScratch
			var route []network.LinkID
			pops := 0
			for i := 0; i < b.N; i++ {
				for v := network.NCPID(1); int(v) < c.net.NumNCPs(); v++ {
					_, p := s.search(c.net, caps, c.loads, 10, 0, v, false)
					pops += p
					var ok bool
					if route, _, ok = s.route(c.net, 0, v, route); !ok {
						b.Fatal("unreachable")
					}
				}
			}
			b.ReportMetric(float64(pops)/float64(b.N*(c.net.NumNCPs()-1)), "pops/route")
		})
		b.Run(c.name+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			var s widestScratch
			var t widestTree
			pops := 0
			for i := 0; i < b.N; i++ {
				pops += s.tree(c.net, caps, c.loads, 10, 0, false, &t)
			}
			b.ReportMetric(float64(pops)/float64(b.N), "pops/tree")
		})
	}
}
