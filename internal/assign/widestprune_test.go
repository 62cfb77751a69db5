package assign

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/resource"
)

// searchUnpruned is widestScratch.search as it was before arcs whose head
// cannot improve were skipped and before route searches stopped once
// nothing could change, kept as the reference the search must reproduce
// bit for bit. Its settled set, a done flag per node when the search kept
// one, is now a local slice.
func (s *widestScratch) searchUnpruned(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from, to network.NCPID, reversed bool) (relaxations int) {
	nodes := slices.Grow(s.nodes[:0], net.NumNCPs())[:net.NumNCPs()]
	for i := range nodes {
		nodes[i] = widestNode{phi: math.Inf(-1), prevLink: -1}
	}
	done := make([]bool, len(nodes))
	s.nodes, s.pq = nodes, s.pq[:0]
	nodes[from].phi = math.Inf(1)
	s.pq.push(widestItem{ncp: int32(from), phi: math.Inf(1)})
	for len(s.pq) > 0 {
		v := network.NCPID(s.pq.pop().ncp)
		if done[v] {
			continue
		}
		done[v] = true
		if v == to {
			break
		}
		arcs := net.OutArcs(v)
		if reversed {
			arcs = net.InArcs(v)
		}
		pv, hv := nodes[v].phi, nodes[v].hops+1
		for _, a := range arcs {
			u := &nodes[a.To]
			if done[a.To] {
				continue
			}
			b := min(pv, linkWeight(caps.Link[a.Link], linkLoad[a.Link], bits))
			if b > u.phi || (b == u.phi && hv < u.hops) {
				*u = widestNode{phi: b, prevLink: a.Link, hops: hv}
				relaxations++
				s.pq.push(widestItem{ncp: int32(a.To), phi: b, hops: hv})
			}
		}
	}
	return relaxations
}

// pruneCase is one seeded search input: a network, residual capacities
// and link loads.
type pruneCase struct {
	name  string
	net   *network.Network
	caps  *network.Capacities
	loads []float64
}

// randomPruneCase builds a full mesh or a sparse graph of 4-24 NCPs whose
// links are undirected or, in some cases, partly directed. Capacities and
// loads are drawn either from a continuum or from a few values so that
// equal-weight ties are common; some links are idle, some have zero
// residual capacity.
func randomPruneCase(t *testing.T, rng *rand.Rand, trial int) pruneCase {
	t.Helper()
	n := 4 + rng.Intn(21)
	mesh := rng.Intn(2) == 0
	directed := rng.Intn(3) == 0
	ties := rng.Intn(2) == 0
	bandwidth := func() float64 {
		if ties {
			return float64(10 * (1 + rng.Intn(2)))
		}
		return 1 + rng.Float64()*100
	}
	nb := network.NewBuilder("prune")
	ids := make([]network.NCPID, n)
	for i := range ids {
		ids[i] = nb.AddNCP(fmt.Sprintf("n%d", i), resource.Vector{resource.CPU: 1}, 0)
	}
	link := func(a, b network.NCPID) {
		if directed && rng.Intn(2) == 0 {
			nb.AddDirectedLink("d", a, b, bandwidth(), 0)
			return
		}
		nb.AddLink("l", a, b, bandwidth(), 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case mesh:
				link(ids[i], ids[j])
			case j == i+1:
				link(ids[i], ids[j])
			case rng.Float64() < 0.1:
				link(ids[j], ids[i])
			}
		}
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	caps := net.BaseCapacities()
	loads := make([]float64, net.NumLinks())
	for l := range loads {
		switch r := rng.Float64(); {
		case r < 0.1:
			caps.Link[l] = 0
		case r < 0.4:
			// idle
		case ties:
			loads[l] = float64(5 * rng.Intn(3))
		default:
			loads[l] = 30 * rng.Float64()
		}
	}
	kind := "sparse"
	if mesh {
		kind = "mesh"
	}
	return pruneCase{name: fmt.Sprintf("trial %d (%s%d, directed=%v, ties=%v)", trial, kind, n, directed, ties), net: net, caps: caps, loads: loads}
}

// TestWidestSearchPruneMatchesReference: on seeded random networks —
// full meshes and sparse graphs, directed links, heterogeneous
// capacities, partial loads, zero-capacity links, zero-bit TTs (+Inf
// weights on idle links) and many equal-weight ties — the pruned search
// and the unpruned reference settle the same nodes with the same
// bottlenecks, predecessor links and hop counts after the same number of
// relaxations, from every source, to exhaustion and to each target, in
// both directions, so routes (links, bottleneck, relaxations) built from
// them are identical. A tree's values-only search reproduces the
// reference's phi bit for bit, and its edges form a tree that carries
// them: every reached NCP's predecessor link is a tree edge and no other
// link is, phi[v] == min(phi[parent], weight) bitwise, and the chain of
// parents reaches the root.
func TestWidestSearchPruneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var pruned, ref widestScratch
	var got widestTree
	for trial := 0; trial < 120; trial++ {
		c := randomPruneCase(t, rng, trial)
		n := c.net.NumNCPs()
		for _, bits := range []float64{0, 1, 10, 10 + rng.Float64()} {
			for from := network.NCPID(0); int(from) < n; from++ {
				for _, reversed := range []bool{false, true} {
					// Trees: values against the reference run to exhaustion.
					pruned.tree(c.net, c.caps, c.loads, bits, from, reversed, &got)
					wantRel := ref.searchUnpruned(c.net, c.caps, c.loads, bits, from, -1, reversed)
					where := fmt.Sprintf("%s, bits %v, from %d, reversed %v", c.name, bits, from, reversed)
					for v, nd := range ref.nodes {
						if math.Float64bits(got.phi[v]) != math.Float64bits(nd.phi) {
							t.Fatalf("%s: tree phi[%d] = %v, reference %v", where, v, got.phi[v], nd.phi)
						}
					}
					checkTreeEdges(t, where, c, bits, from, pruned.prev, &got)
					gotRel, _ := pruned.search(c.net, c.caps, c.loads, bits, from, -1, reversed)
					if gotRel != wantRel || !equalNodes(pruned.nodes, ref.nodes) {
						t.Fatalf("%s: exhaustive search state differs (relaxations %d, reference %d)", where, gotRel, wantRel)
					}
					// Early-stopping searches: every node's state matches.
					to := network.NCPID(rng.Intn(n))
					wantRel = ref.searchUnpruned(c.net, c.caps, c.loads, bits, from, to, reversed)
					gotRel, _ = pruned.search(c.net, c.caps, c.loads, bits, from, to, reversed)
					if gotRel != wantRel || !equalNodes(pruned.nodes, ref.nodes) {
						t.Fatalf("%s, to %d: search state differs (relaxations %d, reference %d)", where, to, gotRel, wantRel)
					}
				}
				// Routes: the per-pair path against the reference search.
				for to := network.NCPID(0); int(to) < n; to++ {
					if to == from {
						continue
					}
					route, b, rel, ok := pruned.path(c.net, c.caps, c.loads, bits, from, to, nil)
					wantRel := ref.searchUnpruned(c.net, c.caps, c.loads, bits, from, to, false)
					wantRoute, wantB, wantOK := ref.route(c.net, from, to, nil)
					if ok != wantOK || rel != wantRel || math.Float64bits(b) != math.Float64bits(wantB) || !slices.Equal(route, wantRoute) {
						t.Fatalf("%s, bits %v, %d->%d: route %v (bottleneck %v, %d relaxations, ok %v), reference %v (%v, %d, %v)",
							c.name, bits, from, to, route, b, rel, ok, wantRoute, wantB, wantRel, wantOK)
					}
				}
			}
		}
	}
}

// checkTreeEdges holds tree t, built from `from` with predecessor links
// prev, to a tree that realizes its phi values: each reached NCP but the
// root has a predecessor link, that link is a tree edge, its head's phi
// is the min of its tail's phi and its weight bit for bit, the chain of
// tails reaches the root within n steps, and no other link is an edge.
func checkTreeEdges(t *testing.T, where string, c pruneCase, size float64, from network.NCPID, prev []network.LinkID, tr *widestTree) {
	t.Helper()
	n := c.net.NumNCPs()
	edges := 0
	for _, w := range tr.edges {
		edges += bits.OnesCount64(w)
	}
	reached := 0
	for v := network.NCPID(0); int(v) < n; v++ {
		l := prev[v]
		if v == from || math.IsInf(tr.phi[v], -1) {
			if l >= 0 {
				t.Fatalf("%s: NCP %d (phi %v) has predecessor link %d", where, v, tr.phi[v], l)
			}
			continue
		}
		reached++
		if l < 0 || tr.edges[l/64]&(1<<(l%64)) == 0 {
			t.Fatalf("%s: NCP %d's predecessor link %d is not a tree edge", where, v, l)
		}
		parent := c.net.Other(l, v)
		want := min(tr.phi[parent], linkWeight(c.caps.Link[l], c.loads[l], size))
		if math.Float64bits(tr.phi[v]) != math.Float64bits(want) {
			t.Fatalf("%s: phi[%d] = %v, min(phi[parent %d], weight of link %d) = %v", where, v, tr.phi[v], parent, l, want)
		}
		u := v
		for steps := 0; u != from; steps++ {
			if steps == n || prev[u] < 0 {
				t.Fatalf("%s: NCP %d's chain of predecessors does not reach root %d", where, v, from)
			}
			u = c.net.Other(prev[u], u)
		}
	}
	if edges != reached {
		t.Fatalf("%s: %d tree edges for %d reached NCPs", where, edges, reached)
	}
}

// equalNodes compares two searches' node states bit for bit.
func equalNodes(a, b []widestNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].phi) != math.Float64bits(b[i].phi) || a[i].prevLink != b[i].prevLink ||
			a[i].hops != b[i].hops {
			return false
		}
	}
	return true
}
