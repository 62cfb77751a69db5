package assign

import (
	"math"
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/taskgraph"
)

// widestTree is the single-source widest-path tree from one NCP for one
// TT size: phi[v] is the best achievable bottleneck C_l/(bits+load_l)
// from the source to every NCP v (−Inf when unreachable). One tree
// therefore answers every (source, target) widest-path *value* query for
// that (source, bits) pair — which is all γ evaluation needs; committed
// routes still run the route-reconstructing per-pair search.
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

// tree computes the widest-path values from `from` along the links
// leaving each NCP or, reversed, along those entering it (phi[v] is then
// the bottleneck from v to `from`), and records them and the tree edges
// in t, reusing t's arrays. It returns the number of NCPs it expanded.
//
// Unlike a route's search it computes values only: it pops on phi alone,
// without hop counts — a popped item below its NCP's phi is superseded,
// and an arc whose head already holds the popped value pv is skipped,
// since min(pv, w) cannot raise it. Pops come in non-increasing
// phi, so once every NCP holds at least pv nothing can change and the
// search stops. It looks for that only after an expansion that scanned
// at least n−1 arcs and left no head below pv, so the pass costs no more
// than the scan before it; on a mesh whose links share one width it
// stops after the second pop. The values are the route search's bit for
// bit (the same weights combined by min and max), and each recorded
// predecessor link realizes its head's phi from an expanded tail.
func (s *widestScratch) tree(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from network.NCPID, reversed bool, t *widestTree) (pops int) {
	n := net.NumNCPs()
	phi := slices.Grow(t.phi[:0], n)[:n]
	prev := slices.Grow(s.prev[:0], n)[:n]
	for v := range phi {
		phi[v], prev[v] = math.Inf(-1), -1
	}
	t.phi, s.prev, s.pq = phi, prev, s.pq[:0]
	phi[from] = math.Inf(1)
	s.pq.push(widestItem{ncp: int32(from), phi: math.Inf(1)})
	for len(s.pq) > 0 {
		it := s.pq.pop()
		v, pv := network.NCPID(it.ncp), it.phi
		if pv < phi[v] {
			continue
		}
		pops++
		arcs := net.OutArcs(v)
		if reversed {
			arcs = net.InArcs(v)
		}
		settled := true
		for _, a := range arcs {
			if phi[a.To] >= pv {
				continue
			}
			if b := min(pv, linkWeight(caps.Link[a.Link], linkLoad[a.Link], bits)); b > phi[a.To] {
				phi[a.To], prev[a.To] = b, a.Link
				s.pq.push(widestItem{ncp: int32(a.To), phi: b})
			}
			settled = settled && phi[a.To] >= pv
		}
		if settled && len(arcs) >= n-1 && !slices.ContainsFunc(phi, func(p float64) bool { return p < pv }) {
			break
		}
	}
	words := (net.NumLinks() + 63) / 64
	t.edges = slices.Grow(t.edges[:0], words)[:words]
	clear(t.edges)
	for _, l := range prev {
		if l >= 0 {
			t.edges[l/64] |= 1 << (l % 64)
		}
	}
	return pops
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
// interned when the cache is reset, so a key is (size index, direction,
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
	// reversed ones follow, only on a network with directed links.
	entries []widestEntry

	// hits/misses count this assignment's lookups served from memory and
	// computed; the state adds them to the registry on release.
	hits, misses int
}

// widestEntry is one cache slot. Its tree is current only while current
// is set: a slot not yet built in this assignment, or invalidated since,
// is rebuilt in its own arrays — kept from earlier assignments — on its
// next lookup.
type widestEntry struct {
	tree    widestTree
	current bool
}

// reset readies c for an assignment of g on net against caps, with link
// loads linkLoad: no tree is current, and every array is reused.
func (c *widestCache) reset(g *taskgraph.Graph, net *network.Network, caps *network.Capacities, linkLoad []float64) {
	c.net, c.caps, c.linkLoad = net, caps, linkLoad
	c.hits, c.misses = 0, 0
	c.bits, c.ttBits = c.bits[:0], c.ttBits[:0]
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
	c.entries = slices.Grow(c.entries[:0], n)[:n]
	for i := range c.entries {
		c.entries[i].current = false
	}
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
	e := &c.entries[i]
	if e.current {
		c.hits++
		return &e.tree
	}
	c.misses++
	s.tree(c.net, c.caps, c.linkLoad, c.bits[bits], from, reversed, &e.tree)
	e.current = true
	return &e.tree
}

// invalidate marks stale every tree that uses one of the changed links.
// Called by the mutation layer after routes are committed.
func (c *widestCache) invalidate(changed []network.LinkID) {
	if len(changed) == 0 {
		return
	}
	for i := range c.entries {
		e := &c.entries[i]
		if !e.current {
			continue
		}
		for _, l := range changed {
			if e.tree.edges[l/64]&(1<<(l%64)) != 0 {
				e.current = false
				break
			}
		}
	}
}
