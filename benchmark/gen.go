package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"sparcle/internal/network"
	"sparcle/internal/scenario"
	"sparcle/internal/shard"
	wl "sparcle/internal/workload"
)

// meshScenario returns a homogeneous full-mesh scenario of n NCPs (cpu
// 3000, bandwidth 1000, link failProb 0.01); for n=16 it is exactly
// testdata/mesh16.json. It is homogeneous on purpose: spreading the
// capacities by as little as a tenth makes the BE solve of even four flows
// take ~80 descent cycles instead of ~10, and place_bound exists to keep
// that solve trivial.
func meshScenario(n int) *scenario.File {
	f := &scenario.File{Network: scenario.NetworkSpec{Name: fmt.Sprintf("mesh%d", n)}, Apps: []scenario.AppSpec{}}
	for i := 0; i < n; i++ {
		f.Network.NCPs = append(f.Network.NCPs, scenario.NCPSpec{
			Name:     fmt.Sprintf("n%02d", i),
			Capacity: map[string]float64{"cpu": 3000},
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f.Network.Links = append(f.Network.Links, scenario.LinkSpec{
				Name: fmt.Sprintf("l%02d-%02d", i, j),
				A:    fmt.Sprintf("n%02d", i), B: fmt.Sprintf("n%02d", j),
				Bandwidth: 1000, FailProb: 0.01,
			})
		}
	}
	return f
}

// netInfo is the slice of GET /network the generator calibrates from.
type netInfo struct {
	NCPs []struct {
		Name     string             `json:"name"`
		Capacity map[string]float64 `json:"capacity"`
	} `json:"ncps"`
	Links []struct {
		Bandwidth float64 `json:"bandwidth"`
	} `json:"links"`
}

// traffic is the part of a workload the request generator depends on.
type traffic struct {
	MinCTs, MaxCTs int
	// GRShare of the applications are guaranteed-rate (minRate,
	// minRateAvailability 0.95, maxPaths 3); the rest are best-effort.
	GRShare float64
	// CrossShare, with regions set, is the share of applications whose
	// sink is pinned in another region than its source.
	CrossShare float64
}

// alpha is the bounded-Pareto tail index of application sizes,
// requirements, bits and priorities (sparcle-load's default).
const alpha = 1.3

// generator emits the benchmark's request stream: bounded-Pareto linear
// pipelines calibrated from GET /network the way cmd/sparcle-load does (a
// size-1 requirement is 2% of the median NCP capacity, a size-1 transfer
// 2% of the median link bandwidth). The stream is a function of the seed
// alone; the server receives only the bodies.
type generator struct {
	rng      *rand.Rand
	tr       traffic
	hosts    []string
	regions  [][]string // hosts by region; nil unless the workload is sharded
	resource string
	reqScale float64
	bitScale float64
	n        int
}

func newGenerator(info *netInfo, tr traffic, regions [][]string, seed int64) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), tr: tr, regions: regions}
	kinds := map[string]bool{}
	for _, n := range info.NCPs {
		g.hosts = append(g.hosts, n.Name)
		for kind := range n.Capacity {
			kinds[kind] = true
		}
	}
	for kind := range kinds {
		if g.resource == "" || kind < g.resource {
			g.resource = kind
		}
	}
	var caps, bws []float64
	for _, n := range info.NCPs {
		if c := n.Capacity[g.resource]; c > 0 {
			caps = append(caps, c)
		}
	}
	for _, l := range info.Links {
		if l.Bandwidth > 0 {
			bws = append(bws, l.Bandwidth)
		}
	}
	if len(caps) == 0 || len(bws) == 0 {
		return nil, errors.New("network advertises no positive capacity or bandwidth")
	}
	sort.Float64s(caps)
	sort.Float64s(bws)
	g.reqScale = caps[len(caps)/2] / 50
	g.bitScale = bws[len(bws)/2] / 50
	return g, nil
}

// regionHosts partitions netw exactly as the server's -shards k does and
// returns the NCP names of each region.
func regionHosts(netw *network.Network, k int) ([][]string, error) {
	part, err := shard.Partition(netw, k)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(part.Regions))
	for i, r := range part.Regions {
		for _, v := range r.Members {
			out[i] = append(out[i], netw.NCP(v).Name)
		}
	}
	return out, nil
}

// request is one generated admission.
type request struct {
	Name string
	Body []byte
}

func (g *generator) pareto(lo, hi float64) float64 {
	return wl.BoundedPareto(g.rng, alpha, lo, hi)
}

// pins draws the source and sink hosts. Unsharded, both are uniform over
// the network. Sharded, the regions are split by what an application does
// to capacity: a guaranteed-rate or cross-region application reserves the
// whole bottleneck of its path (a cross-region half is a capped GR
// reservation), and a best-effort flow crossing an element reserved down
// to zero is allocated nothing — when a departure then leaves a shard
// only such flows the server's re-solve fails and the DELETE answers 500.
// So reservations are pinned into all regions but the last, and
// intra-region best-effort applications into the last, where nothing
// ever reserves: the workload must be one on which no operation fails.
func (g *generator) pins(gr bool) (src, snk string) {
	pick := func(hosts []string) string { return hosts[g.rng.Intn(len(hosts))] }
	if g.regions == nil {
		return pick(g.hosts), pick(g.hosts)
	}
	reserving := len(g.regions) - 1
	cross := g.rng.Float64() < g.tr.CrossShare
	switch {
	case cross:
		ra := g.rng.Intn(reserving)
		rb := (ra + 1 + g.rng.Intn(reserving-1)) % reserving
		return pick(g.regions[ra]), pick(g.regions[rb])
	case gr:
		r := g.regions[g.rng.Intn(reserving)]
		return pick(r), pick(r)
	default:
		r := g.regions[reserving]
		return pick(r), pick(r)
	}
}

// next renders the next application of the stream.
func (g *generator) next() request {
	g.n++
	spec := scenario.AppSpec{Name: fmt.Sprintf("app-%d", g.n)}
	// Work CTs between the pinned source and sink, heavy at the short end.
	cts := max(g.tr.MinCTs, int(g.pareto(1, float64(g.tr.MaxCTs))+0.5))
	gr := g.rng.Float64() < g.tr.GRShare
	src, snk := g.pins(gr)
	if gr {
		spec.QoS = scenario.QoSSpec{
			Class: "guaranteed-rate",
			// A tenth to a whole of what a size-1 pipeline gets from an
			// idle median element (50/s): large enough to reserve real
			// capacity, small enough that most requests are admitted.
			MinRate:             0.5 * g.pareto(1, 10),
			MinRateAvailability: 0.95,
			MaxPaths:            3,
		}
	} else {
		spec.QoS = scenario.QoSSpec{Class: "best-effort", Priority: g.pareto(1, 10)}
	}
	spec.CTs = append(spec.CTs, scenario.CTSpec{Name: "in", Host: src})
	prev := "in"
	for i := 0; i < cts; i++ {
		ct := fmt.Sprintf("w%d", i)
		spec.CTs = append(spec.CTs, scenario.CTSpec{Name: ct, Req: map[string]float64{g.resource: g.reqScale * g.pareto(1, 50)}})
		spec.TTs = append(spec.TTs, scenario.TTSpec{From: prev, To: ct, Bits: g.bitScale * g.pareto(1, 50)})
		prev = ct
	}
	spec.CTs = append(spec.CTs, scenario.CTSpec{Name: "out", Host: snk})
	spec.TTs = append(spec.TTs, scenario.TTSpec{From: prev, To: "out", Bits: g.bitScale * g.pareto(1, 50)})
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a struct of strings and finite floats always marshals
	}
	return request{Name: spec.Name, Body: body}
}
