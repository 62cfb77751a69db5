package alloc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// ncpMaps returns caps' NCP rows as one map per NCP, every kind of the
// rows keyed: the form the map reference computes on.
func ncpMaps(caps *network.Capacities) []resource.Vector {
	out := make([]resource.Vector, caps.NumNCPs())
	for v := range out {
		out[v] = resource.Vector{}
		for i, a := range caps.NCP(network.NCPID(v)) {
			out[v][caps.Kinds()[i]] = a
		}
	}
	return out
}

// predictByMaps is eq. (6) as it was computed before footprints became
// sorted slices and capacities dense rows: per-element totals in hash
// maps, filled footprint by footprint, scaling per-NCP capacity maps.
// Kept as the reference Predict is held bit-equal to.
func predictByMaps(caps *network.Capacities, placed []Footprint, priority float64) (ncp []resource.Vector, link []float64) {
	ncp, link = ncpMaps(caps), slices.Clone(caps.Link)
	ncpTotal := make(map[network.NCPID]float64)
	linkTotal := make(map[network.LinkID]float64)
	for _, fp := range placed {
		ncps := map[network.NCPID]bool{}
		for _, v := range fp.NCPs {
			ncps[v] = true
		}
		for v := range ncps {
			ncpTotal[v] += fp.Priority
		}
		links := map[network.LinkID]bool{}
		for _, l := range fp.Links {
			links[l] = true
		}
		for l := range links {
			linkTotal[l] += fp.Priority
		}
	}
	for v, total := range ncpTotal {
		s := priority / (priority + total)
		for k := range ncp[v] {
			ncp[v][k] *= s
		}
	}
	for l, total := range linkTotal {
		link[l] *= priority / (priority + total)
	}
	return ncp, link
}

// residentFootprints draws k pipelines on an n-NCP mesh and returns their
// eq. (6) footprints, priorities included.
func residentFootprints(tb testing.TB, rng *rand.Rand, n, k int) (*network.Network, []Footprint) {
	net, link := meshN(tb, n)
	fps := make([]Footprint, k)
	for i := range fps {
		f := meshPipeline(tb, rng, net, link)
		fps[i] = FootprintOf(f.Weight, []placement.Path{{P: f.Path}})
	}
	return net, fps
}

func TestFootprintOfSortedAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, link := mesh16(t)
	// Two paths of one application overlap on elements; each element must
	// appear once, or Predict would count the priority twice.
	a, b := meshPipeline(t, rng, net, link), meshPipeline(t, rng, net, link)
	fp := FootprintOf(2, []placement.Path{{P: a.Path}, {P: b.Path}, {P: a.Path}})
	for i := 1; i < len(fp.NCPs); i++ {
		if fp.NCPs[i-1] >= fp.NCPs[i] {
			t.Fatalf("NCPs not strictly ascending: %v", fp.NCPs)
		}
	}
	for i := 1; i < len(fp.Links); i++ {
		if fp.Links[i-1] >= fp.Links[i] {
			t.Fatalf("links not strictly ascending: %v", fp.Links)
		}
	}
	want := map[network.NCPID]bool{}
	for _, p := range []*placement.Placement{a.Path, b.Path} {
		for _, v := range p.LoadedNCPs() {
			want[v] = true
		}
	}
	if len(fp.NCPs) != len(want) {
		t.Fatalf("footprint has %d NCPs, the paths load %d", len(fp.NCPs), len(want))
	}
}

// kindPath places a source, a work CT and a sink on random NCPs of the
// mesh, routed over direct links, whose work CT needs CPU and a kind no
// NCP offers: reserving it must drop that kind, which has no column.
func kindPath(tb testing.TB, rng *rand.Rand, net *network.Network, link [][]network.LinkID) *placement.Placement {
	tb.Helper()
	gb := taskgraph.NewBuilder("k")
	src := gb.AddCT("in", nil)
	work := gb.AddCT("work", resource.Vector{resource.CPU: 50, "scribble": 1})
	snk := gb.AddCT("out", nil)
	gb.AddTT("t0", src, work, 20)
	gb.AddTT("t1", work, snk, 20)
	g, err := gb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p := placement.New(g, net)
	hosts := []int{rng.Intn(len(link)), rng.Intn(len(link)), rng.Intn(len(link))}
	for ct, h := range hosts {
		if err := p.PlaceCT(taskgraph.CTID(ct), network.NCPID(h)); err != nil {
			tb.Fatal(err)
		}
	}
	for tt := 0; tt < 2; tt++ {
		var route []network.LinkID
		if a, b := hosts[tt], hosts[tt+1]; a != b {
			route = []network.LinkID{link[a][b]}
		}
		if err := p.PlaceTT(taskgraph.TTID(tt), route); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// TestPredictBitIdenticalToMaps holds Predict to the map implementation
// with == on every float, over 2000 seeded footprint sets. Every set is
// predicted twice: into a fresh Prediction, and into one Prediction reused
// across all sets and dirtied after each use the way an admission dirties
// it, through Placement.Subtract (paths reserved, kinds no NCP offers
// among them), so reuse must leave no trace. A prediction must not alias
// its input, so the input must equal a copy taken before every Predict
// and Subtract.
func TestPredictBitIdenticalToMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net, link := mesh16(t)
	pool := make([]Footprint, 300)
	for i := range pool {
		f := meshPipeline(t, rng, net, link)
		pool[i] = FootprintOf(f.Weight, []placement.Path{{P: f.Path}})
	}
	dirt := make([]*placement.Placement, 64)
	for i := range dirt {
		if i%2 == 0 {
			dirt[i] = meshPipeline(t, rng, net, link).Path
		} else {
			dirt[i] = kindPath(t, rng, net, link)
		}
	}
	caps := net.BaseCapacities()
	unchanged := func(set int, after string, want *network.Capacities) {
		t.Helper()
		if !reflect.DeepEqual(caps, want) {
			t.Fatalf("set %d: %s changed its input capacities", set, after)
		}
	}
	var reused Prediction
	for set := 0; set < 2000; set++ {
		k := rng.Intn(64)
		placed := make([]Footprint, k)
		for i := range placed {
			placed[i] = pool[rng.Intn(len(pool))]
		}
		// Uneven pools too: eq. (6) runs on capacities GR apps have eaten into.
		for l := range caps.Link {
			caps.Link[l] = 1000 * rng.Float64()
		}
		before := caps.Clone()
		priority := 0.1 + 10*rng.Float64()
		wantNCP, wantLink := predictByMaps(caps, placed, priority)
		fresh := new(Prediction).Predict(caps, placed, priority)
		unchanged(set, "a fresh Predict", before)
		warm := reused.Predict(caps, placed, priority)
		unchanged(set, "a reused Predict", before)
		for name, got := range map[string]*network.Capacities{"fresh": fresh, "reused": warm} {
			gotNCP := ncpMaps(got)
			for v := range wantNCP {
				if len(gotNCP[v]) != len(wantNCP[v]) {
					t.Fatalf("set %d, %s: NCP %d = %v, maps say %v", set, name, v, gotNCP[v], wantNCP[v])
				}
				for kind, w := range wantNCP[v] {
					if gotNCP[v][kind] != w {
						t.Fatalf("set %d, %s: NCP %d %s = %v, maps say %v", set, name, v, kind, gotNCP[v][kind], w)
					}
				}
			}
			for l, w := range wantLink {
				if got.Link[l] != w {
					t.Fatalf("set %d, %s: link %d = %v, maps say %v", set, name, l, got.Link[l], w)
				}
			}
		}
		for range rng.Intn(4) {
			dirt[rng.Intn(len(dirt))].Subtract(warm, 5*rng.Float64())
			unchanged(set, "Subtract", before)
		}
	}
}

// TestPredictReusedAllocatesNothing pins eq. (6) into a warm Prediction at
// zero allocations: the destination's capacities and the totals are reused.
func TestPredictReusedAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net, fps := residentFootprints(t, rng, 16, 64)
	caps := net.BaseCapacities()
	var d Prediction
	d.Predict(caps, fps, 1.5)
	if allocs := testing.AllocsPerRun(100, func() { d.Predict(caps, fps, 1.5) }); allocs != 0 {
		t.Fatalf("Predict into a warm Prediction allocates %v times, want 0", allocs)
	}
}

var predictSink *network.Capacities

// BenchmarkPredict is the microbench twin of alloc.predict_us: eq. (6)
// over the footprints of K resident pipelines, into a warm Prediction as
// the Scheduler runs it. "K=256" is 256 residents on mesh16; "mesh64-K=4"
// is the place_bound shape, four residents on a 64-NCP full mesh, where
// the footprints name a few of the 64 NCPs and 2,016 links.
func BenchmarkPredict(b *testing.B) {
	for _, c := range []struct {
		name string
		n, k int
	}{{"K=256", 16, 256}, {"mesh64-K=4", 64, 4}} {
		rng := rand.New(rand.NewSource(13))
		net, fps := residentFootprints(b, rng, c.n, c.k)
		caps := net.BaseCapacities()
		b.Run(c.name, func(b *testing.B) {
			var d Prediction
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				predictSink = d.Predict(caps, fps, 1.5)
			}
		})
	}
}
