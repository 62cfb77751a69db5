package placement

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// densePlacement is Placement as it was before its loads became sparse:
// one load vector per NCP and one load per link of the whole network, with
// the loaded-element lists kept beside them. It is the reference the
// sparse representation is held bit-identical to.
type densePlacement struct {
	g           *taskgraph.Graph
	ctHost      []network.NCPID
	ttRoute     [][]network.LinkID
	ncpLoad     []resource.Vector
	linkLoad    []float64
	loadedNCPs  []network.NCPID
	loadedLinks []network.LinkID
}

func newDense(g *taskgraph.Graph, net *network.Network) *densePlacement {
	d := &densePlacement{
		g:        g,
		ctHost:   make([]network.NCPID, g.NumCTs()),
		ttRoute:  make([][]network.LinkID, g.NumTTs()),
		ncpLoad:  make([]resource.Vector, net.NumNCPs()),
		linkLoad: make([]float64, net.NumLinks()),
	}
	for i := range d.ncpLoad {
		d.ncpLoad[i] = resource.Vector{}
	}
	return d
}

func (d *densePlacement) PlaceCT(ct taskgraph.CTID, host network.NCPID) {
	d.ctHost[ct] = host
	wasZero := d.ncpLoad[host].IsZero()
	d.ncpLoad[host].Add(d.g.CT(ct).Req)
	if wasZero && !d.ncpLoad[host].IsZero() {
		d.loadedNCPs = append(d.loadedNCPs, host)
	}
}

func (d *densePlacement) PlaceTT(tt taskgraph.TTID, route []network.LinkID) {
	t := d.g.TT(tt)
	d.ttRoute[tt] = append([]network.LinkID(nil), route...)
	for _, l := range route {
		if d.linkLoad[l] == 0 && t.Bits > 0 {
			d.loadedLinks = append(d.loadedLinks, l)
		}
		d.linkLoad[l] += t.Bits
	}
}

func (d *densePlacement) Rate(caps capMaps) float64 {
	rate := -1.0
	for v, load := range d.ncpLoad {
		if load.IsZero() {
			continue
		}
		r := divMin(caps.ncp[v], load)
		if rate < 0 || r < rate {
			rate = r
		}
	}
	for l, bits := range d.linkLoad {
		if bits <= 0 {
			continue
		}
		r := caps.link[l] / bits
		if rate < 0 || r < rate {
			rate = r
		}
	}
	if rate < 0 {
		return 0
	}
	return rate
}

// divMin is the map form of an NCP's rate: min over kinds with a positive
// load of capacity/load, +Inf when no kind is loaded.
func divMin(capacity, load resource.Vector) float64 {
	rate := math.Inf(1)
	for k, a := range load {
		if a <= 0 {
			continue
		}
		if r := capacity[k] / a; r < rate {
			rate = r
		}
	}
	return rate
}

// Subtract is Capacities.SubtractNCP and SubtractLink as map arithmetic:
// every loaded kind loses rate times its load, clamped at zero.
func (d *densePlacement) Subtract(caps capMaps, rate float64) {
	for _, v := range d.loadedNCPs {
		vec := caps.ncp[v]
		vec.AddScaled(d.ncpLoad[v], -rate)
		for k, a := range vec {
			if a < 0 {
				vec[k] = 0
			}
		}
	}
	for _, l := range d.loadedLinks {
		if caps.link[l] -= d.linkLoad[l] * rate; caps.link[l] < 0 {
			caps.link[l] = 0
		}
	}
}

// capMaps is Capacities as the reference computes on them: one map per
// NCP, every kind of the network's rows keyed.
type capMaps struct {
	ncp  []resource.Vector
	link []float64
}

func toMaps(c *network.Capacities) capMaps {
	m := capMaps{ncp: make([]resource.Vector, c.NumNCPs()), link: slices.Clone(c.Link)}
	for v := range m.ncp {
		m.ncp[v] = resource.Vector{}
		for i, a := range c.NCP(network.NCPID(v)) {
			m.ncp[v][c.Kinds()[i]] = a
		}
	}
	return m
}

func (d *densePlacement) Encode() Encoded {
	enc := Encoded{CTHosts: make([]int, len(d.ctHost)), TTRoutes: make([][]int, len(d.ttRoute))}
	for i, h := range d.ctHost {
		enc.CTHosts[i] = int(h)
	}
	for i, route := range d.ttRoute {
		r := make([]int, len(route))
		for j, l := range route {
			r[j] = int(l)
		}
		enc.TTRoutes[i] = r
	}
	for _, v := range d.loadedNCPs {
		enc.LoadedNCPs = append(enc.LoadedNCPs, int(v))
		enc.NCPLoads = append(enc.NCPLoads, d.ncpLoad[v].Clone())
	}
	for _, l := range d.loadedLinks {
		enc.LoadedLinks = append(enc.LoadedLinks, int(l))
		enc.LinkLoads = append(enc.LinkLoads, d.linkLoad[l])
	}
	return enc
}

var diffKinds = []resource.Kind{resource.CPU, resource.Memory, "gpu"}

// diffNetwork draws a connected network: an undirected ring plus random
// chords, some of them directed, over NCPs with random subsets of kinds.
func diffNetwork(t *testing.T, rng *rand.Rand) *network.Network {
	n := 3 + rng.Intn(10)
	b := network.NewBuilder("diff")
	for i := 0; i < n; i++ {
		c := resource.Vector{}
		for _, k := range diffKinds {
			if rng.Intn(3) > 0 {
				c[k] = float64(rng.Intn(4)) * 100 * rng.Float64() // zero now and then
			}
		}
		b.AddNCP(fmt.Sprintf("n%d", i), c, 0)
	}
	for i := 0; i < n; i++ {
		b.AddLink(fmt.Sprintf("r%d", i), network.NCPID(i), network.NCPID((i+1)%n), 1000*rng.Float64(), 0)
	}
	for c := rng.Intn(2 * n); c > 0; c-- {
		a, z := network.NCPID(rng.Intn(n)), network.NCPID(rng.Intn(n))
		if a == z {
			continue
		}
		if rng.Intn(3) == 0 {
			b.AddDirectedLink(fmt.Sprintf("d%d", c), a, z, 1000*rng.Float64(), 0)
		} else {
			b.AddLink(fmt.Sprintf("c%d", c), a, z, 1000*rng.Float64(), 0)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// diffGraph draws a DAG whose CT i > 0 is fed by some earlier CT. About a
// fifth of the CTs require nothing (nil, or explicit zero amounts) and
// about a fifth of the TTs carry no bits.
func diffGraph(t *testing.T, rng *rand.Rand) *taskgraph.Graph {
	n := 2 + rng.Intn(9)
	b := taskgraph.NewBuilder("diff")
	for i := 0; i < n; i++ {
		var req resource.Vector
		switch r := rng.Intn(10); {
		case r == 0:
		case r == 1:
			req = resource.Vector{resource.Memory: 0}
		default:
			req = resource.Vector{}
			for _, k := range diffKinds {
				if rng.Intn(2) == 0 {
					req[k] = float64(rng.Intn(3)) * 10 * rng.Float64()
				}
			}
		}
		b.AddCT(fmt.Sprintf("ct%d", i), req)
	}
	bits := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return 50 * rng.Float64()
	}
	for i := 1; i < n; i++ {
		b.AddTT(fmt.Sprintf("f%d", i), taskgraph.CTID(rng.Intn(i)), taskgraph.CTID(i), bits())
		if j := rng.Intn(n); j < i && rng.Intn(3) == 0 {
			b.AddTT(fmt.Sprintf("x%d", i), taskgraph.CTID(j), taskgraph.CTID(i), bits())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diffRoute returns a breadth-first route from a to z over arcs visited in
// random order, or ok=false if z is unreachable.
func diffRoute(net *network.Network, rng *rand.Rand, a, z network.NCPID) (route []network.LinkID, ok bool) {
	prev := make([]network.Arc, net.NumNCPs())
	seen := make([]bool, net.NumNCPs())
	seen[a] = true
	for queue := []network.NCPID{a}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		arcs := append([]network.Arc(nil), net.OutArcs(u)...)
		rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
		for _, arc := range arcs {
			if !seen[arc.To] {
				seen[arc.To] = true
				prev[arc.To] = network.Arc{Link: arc.Link, To: u}
				queue = append(queue, arc.To)
			}
		}
	}
	if !seen[z] {
		return nil, false
	}
	for v := z; v != a; v = prev[v].To {
		route = append([]network.LinkID{prev[v].Link}, route...)
	}
	return route, true
}

// diffCaps draws residual capacities: the base scaled per element, with
// some elements exhausted.
func diffCaps(net *network.Network, rng *rand.Rand) *network.Capacities {
	caps := net.BaseCapacities()
	for v := range caps.NumNCPs() {
		row := caps.NCP(network.NCPID(v))
		for k := range net.NCP(network.NCPID(v)).Capacity {
			row[caps.Kinds().Index(k)] *= float64(rng.Intn(3)) * rng.Float64()
		}
	}
	for l := range caps.Link {
		caps.Link[l] *= float64(rng.Intn(3)) * rng.Float64()
	}
	return caps
}

func encodedBytes(t *testing.T, enc Encoded) []byte {
	b, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameAmounts reports whether a and b hold bit-identical amounts of every
// kind either names; a kind one of them lacks reads as zero.
func sameAmounts(a, b resource.Vector) bool {
	for k := range a {
		if !sameBits(a[k], b[k]) {
			return false
		}
	}
	for k := range b {
		if !sameBits(a[k], b[k]) {
			return false
		}
	}
	return true
}

func sameCaps(a, b capMaps) bool {
	for v := range a.ncp {
		if !sameAmounts(a.ncp[v], b.ncp[v]) {
			return false
		}
	}
	for l := range a.link {
		if !sameBits(a.link[l], b.link[l]) {
			return false
		}
	}
	return true
}

// checkAgainstDense holds every load-derived output of p to the dense
// reference d: Encode bytes (zero-valued kinds included), per-element
// loads, loaded lists, Rate, and Subtract on random residual capacities.
func checkAgainstDense(t *testing.T, rng *rand.Rand, net *network.Network, p *Placement, d *densePlacement) {
	t.Helper()
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodedBytes(t, enc), encodedBytes(t, d.Encode()); !bytes.Equal(got, want) {
		t.Fatalf("Encode bytes differ:\nsparse %s\ndense  %s", got, want)
	}
	for v := 0; v < net.NumNCPs(); v++ {
		if got, want := p.NCPLoad(network.NCPID(v)), d.ncpLoad[v]; !sameAmounts(got, want) {
			t.Fatalf("NCPLoad(%d) = %v, dense %v", v, got, want)
		}
	}
	for l := 0; l < net.NumLinks(); l++ {
		if got, want := p.LinkLoad(network.LinkID(l)), d.linkLoad[l]; !sameBits(got, want) {
			t.Fatalf("LinkLoad(%d) = %v, dense %v", l, got, want)
		}
	}
	if fmt.Sprint(p.LoadedNCPs(), p.LoadedLinks()) != fmt.Sprint(d.loadedNCPs, d.loadedLinks) {
		t.Fatalf("loaded lists %v %v, dense %v %v", p.LoadedNCPs(), p.LoadedLinks(), d.loadedNCPs, d.loadedLinks)
	}
	for trial := 0; trial < 3; trial++ {
		caps := diffCaps(net, rng)
		rate := p.Rate(caps)
		if want := d.Rate(toMaps(caps)); !sameBits(rate, want) {
			t.Fatalf("Rate = %v, dense %v", rate, want)
		}
		if math.IsInf(rate, 1) || rate == 0 {
			rate = 1 + rng.Float64()
		}
		sparse, dense := caps.Clone(), toMaps(caps)
		p.Subtract(sparse, rate)
		d.Subtract(dense, rate)
		if !sameCaps(toMaps(sparse), dense) {
			t.Fatalf("Subtract at rate %v differs from dense", rate)
		}
	}
}

// TestSparseMatchesDense places seeded random graphs on seeded random
// networks — co-located CTs, zero-requirement CTs and zero-bit TTs
// included — in random order, and holds the sparse placement to the dense
// reference after every step, after Clone, and across Decode∘Encode.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 400; trial++ {
		net, g := diffNetwork(t, rng), diffGraph(t, rng)
		p, d := New(g, net), newDense(g, net)
		// Few distinct hosts, so CTs share NCPs and TTs share links.
		hosts := make([]network.NCPID, 1+rng.Intn(3))
		for i := range hosts {
			hosts[i] = network.NCPID(rng.Intn(net.NumNCPs()))
		}
		placedTT := make([]bool, g.NumTTs())
		feasible := true
		for _, i := range rng.Perm(g.NumCTs()) {
			ct := taskgraph.CTID(i)
			host := hosts[rng.Intn(len(hosts))]
			if err := p.PlaceCT(ct, host); err != nil {
				t.Fatal(err)
			}
			d.PlaceCT(ct, host)
			for _, j := range rng.Perm(g.NumTTs()) {
				tt := g.TT(taskgraph.TTID(j))
				from, to := p.Host(tt.From), p.Host(tt.To)
				if placedTT[j] || from < 0 || to < 0 {
					continue
				}
				route, ok := diffRoute(net, rng, from, to)
				if !ok {
					feasible = false
					break
				}
				if err := p.PlaceTT(taskgraph.TTID(j), route); err != nil {
					t.Fatal(err)
				}
				d.PlaceTT(taskgraph.TTID(j), route)
				placedTT[j] = true
			}
			if !feasible {
				break
			}
			for v := 0; v < net.NumNCPs(); v++ {
				if got, want := p.NCPLoad(network.NCPID(v)), d.ncpLoad[v]; !sameAmounts(got, want) {
					t.Fatalf("trial %d: NCPLoad(%d) = %v mid-placement, dense %v", trial, v, got, want)
				}
			}
		}
		if !feasible {
			continue
		}
		checkAgainstDense(t, rng, net, p, d)
		checkAgainstDense(t, rng, net, p.Clone(), d)
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(enc, g, net)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDense(t, rng, net, back, d)
	}
}
