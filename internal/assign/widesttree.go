package assign

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// the bottleneck from v to `from`). It is the same search a route runs, so
// for every target the tree's phi equals the per-pair search's bottleneck
// bit for bit.
func (s *widestScratch) tree(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from network.NCPID, reversed bool) widestTree {
	s.search(net, caps, linkLoad, bits, from, -1, reversed)
	t := widestTree{
		phi:   make([]float64, len(s.nodes)),
		edges: make([]uint64, (net.NumLinks()+63)/64),
	}
	for v, nd := range s.nodes {
		t.phi[v] = nd.phi
		if l := nd.prevLink; l >= 0 {
			t.edges[l/64] |= 1 << (l % 64)
		}
	}
	return t
}

// bottleneck returns the widest-path bottleneck from the tree's source to
// `to` and whether `to` is reachable. A same-host query is +Inf, matching
// WidestPath's from == to case.
func (t *widestTree) bottleneck(to network.NCPID) (float64, bool) {
	b := t.phi[to]
	return b, !math.IsInf(b, -1)
}

// widestCache memoizes single-source widest-path trees per (source host,
// TT size, direction) for the current state of the link loads. Lookups
// are safe from concurrent scorers: each slot is an atomic pointer and
// each tree is computed exactly once (sync.Once), so racing scorers block
// on the first computation instead of duplicating it.
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
	// absent.
	entries []atomic.Pointer[widestEntry]

	// hits/misses are the obs counters (nil-safe no-ops by default).
	hits, misses *obs.Counter
}

type widestEntry struct {
	once sync.Once
	tree widestTree
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
	c.entries = make([]atomic.Pointer[widestEntry], n)
	return c
}

// tree returns the memoized widest-path tree for (from, c.bits[bits],
// direction), computing it on s on first use. Safe for concurrent callers,
// each with its own scratch.
func (c *widestCache) tree(from network.NCPID, bits int, reversed bool, s *widestScratch) *widestTree {
	// Without directed links one tree serves both directions.
	reversed = reversed && !c.net.Symmetric()
	i := bits*c.net.NumNCPs() + int(from)
	if reversed {
		i += len(c.bits) * c.net.NumNCPs()
	}
	slot := &c.entries[i]
	e := slot.Load()
	if e != nil {
		c.hits.Inc()
	} else if fresh := new(widestEntry); slot.CompareAndSwap(nil, fresh) {
		c.misses.Inc()
		e = fresh
	} else {
		c.hits.Inc()
		e = slot.Load()
	}
	e.once.Do(func() {
		e.tree = s.tree(c.net, c.caps, c.linkLoad, c.bits[bits], from, reversed)
	})
	return &e.tree
}

// invalidate drops every entry whose tree uses one of the changed links.
// Called by the mutation layer after routes are committed, never
// concurrently with tree().
func (c *widestCache) invalidate(changed []network.LinkID) {
	if len(changed) == 0 {
		return
	}
	for i := range c.entries {
		e := c.entries[i].Load()
		if e == nil {
			continue
		}
		for _, l := range changed {
			if e.tree.edges[l/64]&(1<<(l%64)) != 0 {
				c.entries[i].Store(nil)
				break
			}
		}
	}
}
