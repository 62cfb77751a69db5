package assign

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
	"sparcle/internal/workload"
)

// goldenCases are the bit-identity fixtures of Algorithm 2. Each file in
// testdata holds every decision (CT → host with its γ bits), every
// committed TT route and every path rate of a seeded application stream,
// as written by the search code before its allocation-free rewrite. A
// search that pops equal-key heap entries in another order, or a γ that
// differs in its last bit, changes these bytes.
var goldenCases = []struct {
	file string
	net  func(t testing.TB) *network.Network
	seed int64
}{
	// Homogeneous: every search on it meets ties in (width, hops).
	{"mesh64.golden", goldenMesh64, 1},
	// Heterogeneous capacities with directed links: forward and reversed
	// trees differ.
	{"directed16.golden", goldenDirected16, 2},
}

func TestGoldenPlacements(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenStream(t, c.net(t), c.seed, 60)
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%d lines, want %d", len(gl), len(wl))
		})
	}
}

// goldenMesh64 is the homogeneous 64-NCP full mesh of the place_bound
// benchmark workload: cpu 3000 per NCP, bandwidth 1000 per link.
func goldenMesh64(t testing.TB) *network.Network {
	net, err := network.FullMesh(64, network.ElementParams{
		NCPCapacity:   resource.Vector{resource.CPU: 3000},
		LinkBandwidth: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// goldenDirected16 is a 16-NCP ring with chords: ring neighbours are joined
// by two directed links of unrelated bandwidths, chords by an undirected
// link or a directed pair, and NCP capacities are spread fivefold.
func goldenDirected16(t testing.TB) *network.Network {
	rng := rand.New(rand.NewSource(16))
	const n = 16
	b := network.NewBuilder("directed16")
	for i := 0; i < n; i++ {
		b.AddNCP(fmt.Sprintf("n%d", i), resource.Vector{resource.CPU: 1000 + 4000*rng.Float64()}, 0)
	}
	bw := func() float64 { return 100 + 1900*rng.Float64() }
	duplex := func(i, j int) {
		b.AddDirectedLink(fmt.Sprintf("f%d-%d", i, j), network.NCPID(i), network.NCPID(j), bw(), 0)
		b.AddDirectedLink(fmt.Sprintf("b%d-%d", i, j), network.NCPID(j), network.NCPID(i), bw(), 0)
	}
	for i := 0; i < n; i++ {
		duplex(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			switch r := rng.Float64(); {
			case r < 0.15:
				b.AddLink(fmt.Sprintf("u%d-%d", i, j), network.NCPID(i), network.NCPID(j), bw(), 0)
			case r < 0.25:
				duplex(i, j)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// goldenStream runs `apps` seeded linear pipelines (linearApp) through
// Algorithm 2 and renders the outcome. Each is assigned against the
// residual left by the four applications before it, each reserved at half
// its rate, so later searches run on unevenly loaded links.
func goldenStream(t testing.TB, net *network.Network, seed int64, apps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	base := net.BaseCapacities()
	type resident struct {
		p    *placement.Placement
		rate float64
	}
	var residents []resident
	var out bytes.Buffer
	for a := 0; a < apps; a++ {
		g, src, snk := linearApp(t, rng, net, a)
		fmt.Fprintf(&out, "app %d cts %d src %d snk %d\n", a, g.NumCTs()-2, src, snk)

		residual := base.Clone()
		for _, r := range residents {
			r.p.Subtract(residual, r.rate)
		}
		p, decisions, _, err := tracedAssign(t, Sparcle{}, g, pinEnds(g, src, snk), net, residual)
		for _, d := range decisions {
			host, _ := net.NCPIDByName(d.Host)
			fmt.Fprintf(&out, "  step %d ct %d host %d gamma %016x\n", d.Step, ctIDByName(g, d.CT), host, math.Float64bits(d.Gamma))
		}
		if err != nil {
			fmt.Fprintf(&out, "  error %v\n", err)
			continue
		}
		for tt := 0; tt < g.NumTTs(); tt++ {
			route, _ := p.Route(taskgraph.TTID(tt))
			fmt.Fprintf(&out, "  tt %d route %v\n", tt, route)
		}
		rate := p.Rate(residual)
		fmt.Fprintf(&out, "  rate %016x\n", math.Float64bits(rate))
		residents = append(residents, resident{p, rate / 2})
		if len(residents) > 4 {
			residents = residents[1:]
		}
	}
	return out.Bytes()
}

// ctIDByName resolves a CT name recorded in a span back to its id.
func ctIDByName(g *taskgraph.Graph, name string) taskgraph.CTID {
	for ct := 0; ct < g.NumCTs(); ct++ {
		if g.CT(taskgraph.CTID(ct)).Name == name {
			return taskgraph.CTID(ct)
		}
	}
	return -1
}

// linearApp draws the a-th application of a seeded stream shaped like the
// benchmark's: a linear pipeline of 2–8 work CTs, with bounded-Pareto
// requirements and bits scaled to NCP 0's cpu and link 0's bandwidth, and
// its source and sink pinned uniformly at random.
func linearApp(t testing.TB, rng *rand.Rand, net *network.Network, a int) (g *taskgraph.Graph, src, snk network.NCPID) {
	reqScale := net.NCP(0).Capacity[resource.CPU] / 50
	bitScale := net.Link(0).Bandwidth / 50
	cts := max(2, int(workload.BoundedPareto(rng, 1.3, 1, 8)+0.5))
	reqs := make([]resource.Vector, cts)
	bits := make([]float64, cts+1)
	for i := range reqs {
		reqs[i] = resource.Vector{resource.CPU: reqScale * workload.BoundedPareto(rng, 1.3, 1, 50)}
	}
	for i := range bits {
		bits[i] = bitScale * workload.BoundedPareto(rng, 1.3, 1, 50)
	}
	g, err := taskgraph.Linear(fmt.Sprintf("app%d", a), reqs, bits)
	if err != nil {
		t.Fatal(err)
	}
	src, snk = network.NCPID(rng.Intn(net.NumNCPs())), network.NCPID(rng.Intn(net.NumNCPs()))
	return g, src, snk
}
