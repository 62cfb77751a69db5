package core

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

// beMesh returns the homogeneous full mesh of the place_bound workload
// (cpu 3000, bandwidth 1000, link failProb 0.01) with n NCPs.
func beMesh(tb testing.TB, n int) *network.Network {
	tb.Helper()
	net, err := network.FullMesh(n, network.ElementParams{
		NCPCapacity:   resource.Vector{resource.CPU: 3000},
		LinkBandwidth: 1000,
		LinkFailProb:  0.01,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// bePipeline returns a single-path BE app: a linear pipeline of cts CTs
// with place_bound's requirement and bit scales, pinned from src to snk.
func bePipeline(tb testing.TB, rng *rand.Rand, cts int, src, snk network.NCPID) App {
	tb.Helper()
	reqs := make([]resource.Vector, cts)
	bits := make([]float64, cts+1)
	for i := range reqs {
		reqs[i] = resource.Vector{resource.CPU: 60 * workload.BoundedPareto(rng, 1.3, 1, 50)}
	}
	for i := range bits {
		bits[i] = 20 * workload.BoundedPareto(rng, 1.3, 1, 50)
	}
	g, err := taskgraph.Linear("pipeline", reqs, bits)
	if err != nil {
		tb.Fatal(err)
	}
	pins := placement.Pins{}
	for _, ct := range g.Sources() {
		pins[ct] = src
	}
	for _, ct := range g.Sinks() {
		pins[ct] = snk
	}
	return App{Graph: g, Pins: pins, QoS: QoS{Class: BestEffort, Priority: 0.5 + 2*rng.Float64(), MaxPaths: 1}}
}

// beStream is a warmed K=4 best-effort stream on s: step withdraws the
// oldest resident and admits the next template under a fresh name.
type beStream struct {
	tb        testing.TB
	s         *Scheduler
	templates []App
	live      []string
	seq       int
}

func newBEStream(tb testing.TB, net *network.Network, templates []App) *beStream {
	st := &beStream{tb: tb, s: New(net), templates: templates}
	for len(st.live) < 4 {
		st.admit()
	}
	return st
}

func (st *beStream) admit() {
	app := st.templates[st.seq%len(st.templates)]
	app.Name = fmt.Sprintf("app-%d", st.seq)
	st.seq++
	if _, err := st.s.Submit(app); err != nil {
		st.tb.Fatal(err)
	}
	st.live = append(st.live, app.Name)
}

func (st *beStream) step() {
	if err := st.s.Remove(st.live[0]); err != nil {
		st.tb.Fatal(err)
	}
	st.live = st.live[1:]
	st.admit()
}

// BenchmarkSubmitBE is the microbench twin of core.submit_us on
// place_bound: a warmed K=4 BE remove-then-admit stream of 2–8-CT
// pipelines on the homogeneous 16- and 64-NCP meshes. Its B/op and
// allocs/op are what an admission costs beyond its footprint.
func BenchmarkSubmitBE(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("mesh%d", n), func(b *testing.B) {
			net := beMesh(b, n)
			rng := rand.New(rand.NewSource(3))
			var templates []App
			for i := 0; i < 16; i++ {
				cts := max(2, int(workload.BoundedPareto(rng, 1.3, 1, 8)+0.5))
				src, snk := network.NCPID(rng.Intn(n)), network.NCPID(rng.Intn(n))
				templates = append(templates, bePipeline(b, rng, cts, src, snk))
			}
			st := newBEStream(b, net, templates)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.step()
			}
		})
	}
}

// maxAllocGrowth bounds how many more allocations one remove-then-admit
// step may make on the 64-NCP mesh than on the 16-NCP one. Measured: 2
// (3 under -race). A per-NCP allocation anywhere on the BE path adds at
// least 48; per-NCP load maps and a cloned prediction made it 339.
const maxAllocGrowth = 8

// TestSubmitBEAllocsIndependentOfNetworkSize admits the same pipeline
// shape on a 16- and a 64-NCP mesh and holds the per-step allocation
// counts within maxAllocGrowth of each other: an admission costs its
// footprint, not the network.
func TestSubmitBEAllocsIndependentOfNetworkSize(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{16, 64} {
		rng := rand.New(rand.NewSource(5))
		var templates []App
		for i := 0; i < 4; i++ {
			templates = append(templates, bePipeline(t, rng, 4, network.NCPID(2*i), network.NCPID(2*i+1)))
		}
		st := newBEStream(t, beMesh(t, n), templates)
		allocs[n] = testing.AllocsPerRun(20, st.step)
	}
	if growth := allocs[64] - allocs[16]; growth > maxAllocGrowth {
		t.Fatalf("a BE step allocates %.0f times on mesh64 and %.0f on mesh16: %.0f more, want <= %d",
			allocs[64], allocs[16], growth, maxAllocGrowth)
	}
	t.Logf("allocs per step: mesh16 %.0f, mesh64 %.0f", allocs[16], allocs[64])
}
