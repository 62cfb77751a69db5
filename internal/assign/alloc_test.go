package assign

import (
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/resource"
)

// TestWidestSearchAllocs pins the reused search scratch: once it and the
// tree have grown, a tree rebuild and a route search allocate nothing, on
// a 16- and a 64-NCP full mesh alike and however many relaxations (heap
// pushes) the search performs.
func TestWidestSearchAllocs(t *testing.T) {
	for _, n := range []int{16, 64} {
		net, err := network.FullMesh(n, network.ElementParams{
			NCPCapacity:   resource.Vector{resource.CPU: 3000},
			LinkBandwidth: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		caps := net.BaseCapacities()
		// Uneven loads, so that searches relax far more arcs than there
		// are NCPs.
		rng := rand.New(rand.NewSource(int64(n)))
		loads := make([]float64, net.NumLinks())
		for l := range loads {
			loads[l] = 50 * rng.Float64()
		}
		from, to := network.NCPID(0), network.NCPID(n-1)
		var s widestScratch
		route, _, relaxations, ok := s.path(net, caps, loads, 10, from, to, nil)
		if !ok || relaxations <= n {
			t.Fatalf("mesh%d: %d relaxations (ok=%v), want more than %d", n, relaxations, ok, n)
		}
		var tr widestTree
		tree := testing.AllocsPerRun(100, func() { s.tree(net, caps, loads, 10, from, false, &tr) })
		search := testing.AllocsPerRun(100, func() { s.path(net, caps, loads, 10, from, to, route) })
		if tree > 0 || search > 0 {
			t.Fatalf("mesh%d: tree rebuild allocates %v times, route search %v; want 0", n, tree, search)
		}
	}
}
