package assign

import (
	"container/heap"
	"math"
	"sync"

	"sparcle/internal/network"
	"sparcle/internal/obs"
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
	// usesLink[l] reports whether link l is a tree edge (the predecessor
	// link of some reached NCP). The phi values depend on the weights of
	// exactly these links — see widestCache.invalidate.
	usesLink []bool
}

// newWidestTree runs the full Dijkstra-style search from `from`, along
// the links leaving each NCP or, reversed, along those entering it (phi[v]
// is then the bottleneck from v to `from`). The relaxation rule (maximize
// bottleneck, tie-break toward fewer hops) is identical to
// widestPathCounted, so for every target the tree's phi equals the
// per-pair search's bottleneck bit for bit.
func newWidestTree(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from network.NCPID, reversed bool) *widestTree {
	n := net.NumNCPs()
	t := &widestTree{
		phi:      make([]float64, n),
		usesLink: make([]bool, net.NumLinks()),
	}
	hops := make([]int, n)
	prevLink := make([]network.LinkID, n)
	done := make([]bool, n)
	for i := range t.phi {
		t.phi[i] = math.Inf(-1)
		prevLink[i] = -1
	}
	t.phi[from] = math.Inf(1)

	pq := &widestQueue{}
	heap.Push(pq, widestItem{ncp: from, phi: t.phi[from]})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(widestItem)
		v := it.ncp
		if done[v] {
			continue
		}
		done[v] = true
		links := net.Incident(v)
		if reversed {
			links = net.Entering(v)
		}
		for _, l := range links {
			u := net.Other(l, v)
			if done[u] {
				continue
			}
			w := linkWeight(caps.Link[l], linkLoad[l], bits)
			b := math.Min(t.phi[v], w)
			if b > t.phi[u] || (b == t.phi[u] && hops[v]+1 < hops[u]) {
				t.phi[u] = b
				hops[u] = hops[v] + 1
				prevLink[u] = l
				heap.Push(pq, widestItem{ncp: u, phi: b, hops: hops[u]})
			}
		}
	}
	for _, l := range prevLink {
		if l >= 0 {
			t.usesLink[l] = true
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

// widestKey identifies one memoized tree: all γ evaluations probing host
// `from` with a TT of `bits` flowing the same way share it.
type widestKey struct {
	from     network.NCPID
	bits     float64
	reversed bool
}

// widestCache memoizes single-source widest-path trees per (source host,
// bits) for the current state of the link loads. Lookups are safe from
// concurrent scorers: the entry map is guarded by a mutex and each tree is
// computed exactly once (sync.Once), so racing scorers block on the first
// computation instead of duplicating it.
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

	mu      sync.Mutex
	entries map[widestKey]*widestEntry

	// hits/misses are the obs counters (nil-safe no-ops by default).
	hits, misses *obs.Counter
}

type widestEntry struct {
	once sync.Once
	tree *widestTree
}

func newWidestCache(net *network.Network, caps *network.Capacities, linkLoad []float64) *widestCache {
	return &widestCache{
		net:      net,
		caps:     caps,
		linkLoad: linkLoad,
		entries:  map[widestKey]*widestEntry{},
	}
}

// tree returns the memoized widest-path tree for (from, bits, direction),
// computing it on first use. Safe for concurrent callers.
func (c *widestCache) tree(from network.NCPID, bits float64, reversed bool) *widestTree {
	key := widestKey{from: from, bits: bits, reversed: reversed && !c.net.Symmetric()}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &widestEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	e.once.Do(func() {
		e.tree = newWidestTree(c.net, c.caps, c.linkLoad, bits, from, key.reversed)
	})
	return e.tree
}

// invalidate drops every entry whose tree uses one of the changed links.
// Called by the mutation layer after routes are committed, never
// concurrently with tree().
func (c *widestCache) invalidate(changed []network.LinkID) {
	if len(changed) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		for _, l := range changed {
			if e.tree.usesLink[l] {
				delete(c.entries, key)
				break
			}
		}
	}
}
