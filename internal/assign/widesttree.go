package assign

import (
	"math"
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/taskgraph"
)

// widestTree is the single-source widest-path tree from one NCP for one
// TT size: phi[v] is the best achievable bottleneck C_l/(bits+load_l)
// from the source to every NCP v (−Inf when unreachable), computed by the
// exact relaxation rule of Algorithm 1, run to exhaustion instead of
// stopping at a single target. One tree therefore answers every
// (source, target) widest-path *value* query for that (source, bits)
// pair — which is all γ evaluation needs; committed routes still run the
// route-reconstructing per-pair search.
//
// γ evaluation roots trees at the *placed* end of each link term: one
// tree then serves the entire candidate-host scan of an iteration, and
// every CT sharing that term, instead of one tree per candidate host. A
// term whose stream runs *toward* the placed end needs the bottleneck
// from each candidate to the root, which a reversed tree holds: the same
// search over the links entering each NCP. On a network without directed
// links the two coincide — every path is valid reversed with the same
// link set, hence the same bottleneck (min over the identical weights,
// bit-exact, since min neither rounds nor depends on order) — and one
// tree serves both directions.
type widestTree struct {
	phi []float64
	// edges is the set of tree edges (the predecessor link of some reached
	// NCP), one bit per link. The phi values depend on the weights of
	// exactly these links — see widestCache.invalidate.
	edges []uint64
}

// tree runs the search from `from` to exhaustion on s, along the links
// leaving each NCP or, reversed, along those entering it (phi[v] is then
// the bottleneck from v to `from`), and records the result in t, reusing
// t's arrays. It is the same search a route runs, so for every target the
// tree's phi equals the per-pair search's bottleneck bit for bit.
func (s *widestScratch) tree(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from network.NCPID, reversed bool, t *widestTree) {
	s.search(net, caps, linkLoad, bits, from, -1, reversed)
	t.fill(s.nodes, net.NumLinks())
}

// fill records the bottlenecks and predecessor links of a finished search
// in t, reusing t's arrays.
func (t *widestTree) fill(nodes []widestNode, numLinks int) {
	t.phi = slices.Grow(t.phi[:0], len(nodes))[:len(nodes)]
	t.edges = slices.Grow(t.edges[:0], (numLinks+63)/64)[:(numLinks+63)/64]
	clear(t.edges)
	for v, nd := range nodes {
		t.phi[v] = nd.phi
		if l := nd.prevLink; l >= 0 {
			t.edges[l/64] |= 1 << (l % 64)
		}
	}
}

// bottleneck returns the widest-path bottleneck from the tree's source to
// `to` and whether `to` is reachable. A same-host query is +Inf, matching
// WidestPath's from == to case.
func (t *widestTree) bottleneck(to network.NCPID) (float64, bool) {
	b := t.phi[to]
	return b, !math.IsInf(b, -1)
}

// widestCache memoizes single-source widest-path trees per (source host,
// TT size, direction) for the current state of the link loads.
//
// The slots are a dense array: the application's distinct TT sizes are
// interned when the cache is built, so a key is (size index, direction,
// root) and a lookup hashes nothing.
//
// Invalidation (mutation layer only, between scoring phases): committing a
// placement only *increases* link loads, which only *decreases* link
// weights. A weight decrease on a link outside a tree cannot improve any
// alternative path (widths only shrink) nor change the tree's own widths,
// so the tree's phi values stay exact; only entries whose tree edges
// include a loaded link can change. Placing a CT therefore dirties exactly
// the (host, bits) entries whose trees share a newly loaded link.
type widestCache struct {
	net  *network.Network
	caps *network.Capacities
	// linkLoad aliases the evaluation view's live link loads.
	linkLoad []float64

	// bits holds the application's distinct TT sizes and ttBits[tt] the
	// index of TT tt's size in it.
	bits   []float64
	ttBits []int
	// entries[bits index*NumNCPs + root] are the forward trees; the
	// reversed ones follow, only on a network with directed links. nil is
	// never built.
	entries []*widestEntry

	// hits/misses are the obs counters (nil-safe no-ops by default).
	hits, misses *obs.Counter
}

// widestEntry is one cache slot's tree. An invalidated tree is stale and
// is rebuilt in its own arrays on its next lookup.
type widestEntry struct {
	tree  widestTree
	stale bool
}

func newWidestCache(g *taskgraph.Graph, net *network.Network, caps *network.Capacities, linkLoad []float64) *widestCache {
	c := &widestCache{net: net, caps: caps, linkLoad: linkLoad}
	for tt := 0; tt < g.NumTTs(); tt++ {
		b := g.TT(taskgraph.TTID(tt)).Bits
		i := slices.Index(c.bits, b)
		if i < 0 {
			i = len(c.bits)
			c.bits = append(c.bits, b)
		}
		c.ttBits = append(c.ttBits, i)
	}
	n := len(c.bits) * net.NumNCPs()
	if !net.Symmetric() {
		n *= 2
	}
	c.entries = make([]*widestEntry, n)
	return c
}

// tree returns the memoized widest-path tree for (from, c.bits[bits],
// direction), building it on s on first use or after an invalidation.
// The tree is the cache's, current until the next invalidate.
func (c *widestCache) tree(from network.NCPID, bits int, reversed bool, s *widestScratch) *widestTree {
	// Without directed links one tree serves both directions.
	reversed = reversed && !c.net.Symmetric()
	i := bits*c.net.NumNCPs() + int(from)
	if reversed {
		i += len(c.bits) * c.net.NumNCPs()
	}
	e := c.entries[i]
	switch {
	case e == nil:
		e = new(widestEntry)
		c.entries[i] = e
	case !e.stale:
		c.hits.Inc()
		return &e.tree
	}
	c.misses.Inc()
	s.tree(c.net, c.caps, c.linkLoad, c.bits[bits], from, reversed, &e.tree)
	e.stale = false
	return &e.tree
}

// invalidate marks stale every tree that uses one of the changed links.
// Called by the mutation layer after routes are committed.
func (c *widestCache) invalidate(changed []network.LinkID) {
	if len(changed) == 0 {
		return
	}
	for _, e := range c.entries {
		if e == nil || e.stale {
			continue
		}
		for _, l := range changed {
			if e.tree.edges[l/64]&(1<<(l%64)) != 0 {
				e.stale = true
				break
			}
		}
	}
}
