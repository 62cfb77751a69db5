// Package assign implements SPARCLE's polynomial-time task assignment:
// Algorithm 1 (the modified Dijkstra widest-path search used to route one
// transport task) and Algorithm 2 (the dynamic-ranking greedy that places
// computation tasks one at a time on heterogeneous NCPs with
// limited-bandwidth links), plus the multi-path iteration of §IV.D.
package assign

import (
	"math"
	"slices"

	"sparcle/internal/network"
)

// WidestPath finds the best path P*_k(from, to) for a TT carrying `bits`
// per data unit (Algorithm 1, eq. (3)): the path maximizing the minimum
// over its links of C_l / (bits + linkLoad[l]), where linkLoad holds the
// bits per data unit already routed on each link by the placement under
// construction and caps holds residual link bandwidths.
//
// Ties in the bottleneck value are broken toward fewer hops, so the search
// never wastes links (or availability) on an equally-wide detour.
//
// It returns the route, the bottleneck value (the minimum link weight along
// the route, +Inf when from == to), and ok=false when to is unreachable.
func WidestPath(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from, to network.NCPID) (route []network.LinkID, bottleneck float64, ok bool) {
	route, bottleneck, _, ok = new(widestScratch).path(net, caps, linkLoad, bits, from, to, nil)
	return route, bottleneck, ok
}

// path is WidestPath on s, appending the route to dst[:0], plus the number
// of successful relaxations — the telemetry layer's measure of routing
// effort, one increment each, which the exported wrapper discards.
func (s *widestScratch) path(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from, to network.NCPID, dst []network.LinkID) (route []network.LinkID, bottleneck float64, relaxations int, ok bool) {
	if from == to {
		return dst[:0], math.Inf(1), 0, true
	}
	relaxations, _ = s.search(net, caps, linkLoad, bits, from, to, false)
	route, bottleneck, ok = s.route(net, from, to, dst)
	return route, bottleneck, relaxations, ok
}

// route reconstructs the path from `from` to `to` that the last search on
// s found, by walking predecessor links back from `to`, appending it to
// dst[:0]. ok=false when `to` was not reached.
func (s *widestScratch) route(net *network.Network, from, to network.NCPID, dst []network.LinkID) (route []network.LinkID, bottleneck float64, ok bool) {
	if math.IsInf(s.nodes[to].phi, -1) {
		return nil, 0, false
	}
	route = dst[:0]
	for v := to; v != from; {
		l := s.nodes[v].prevLink
		route = append(route, l)
		v = net.Other(l, v)
	}
	slices.Reverse(route)
	return route, s.nodes[to].phi, true
}

// widestNode is one NCP's state in a search.
type widestNode struct {
	phi      float64        // best bottleneck from the source
	prevLink network.LinkID // last link of the best-known path, -1 if none
	hops     int32          // hop count of the best-known path
}

// widestScratch is a search's working memory, reused by one search at a
// time: the assignment state holds one.
type widestScratch struct {
	nodes []widestNode
	// prev[v] is a tree search's predecessor link of NCP v, -1 if none.
	prev []network.LinkID
	pq   widestQueue
}

// search runs Algorithm 1's relaxation from `from` on fresh nodes, along
// the arcs leaving each NCP or, reversed, entering it (phi is then the
// bottleneck to `from`): maximize the bottleneck, tie-break toward fewer
// hops. It stops once `to` is settled (-1: never) and returns the number
// of successful relaxations and of NCPs expanded. Which of several
// equally wide, equally short paths a route takes is decided by the pop
// order of equal keys, so widestQueue sifts exactly as container/heap
// does.
//
// Keys (phi, then fewer hops) come off the queue in non-increasing order,
// and a relaxation from v yields a key strictly below v's, so a node's
// state never improves once popped: a popped item whose key no longer
// matches its node's state is stale. An arc whose head already holds
// more than v's bottleneck pv, or pv at no more hops, is skipped before
// its link is read: min(pv, w) never exceeds pv, so the skipped arcs are
// exactly those the relax test would reject (every arc into a popped
// node among them). On a uniform mesh that is almost every arc.
//
// A route search (to >= 0) also stops once nothing can change: when an
// expansion over at least n-1 arcs relaxed nothing, and every NCP holds
// more than the next popped bottleneck pv, or pv at no more than the hop
// count hv it would hand on, every later relaxation (at most pv, at no
// fewer than hv hops) would fail, so every state is already final. The
// arc-count guard keeps that pass no dearer than the scan before it. On
// a uniform mesh the search stops at the second expansion.
func (s *widestScratch) search(net *network.Network, caps *network.Capacities, linkLoad []float64, bits float64, from, to network.NCPID, reversed bool) (relaxations, pops int) {
	n := net.NumNCPs()
	nodes := slices.Grow(s.nodes[:0], n)[:n]
	for i := range nodes {
		nodes[i] = widestNode{phi: math.Inf(-1), prevLink: -1}
	}
	s.nodes, s.pq = nodes, s.pq[:0]
	nodes[from].phi = math.Inf(1)
	s.pq.push(widestItem{ncp: int32(from), phi: math.Inf(1)})
	idle := false // the last expansion scanned >= n-1 arcs and relaxed nothing
	for len(s.pq) > 0 {
		it := s.pq.pop()
		v := network.NCPID(it.ncp)
		if it.phi != nodes[v].phi || it.hops != nodes[v].hops {
			continue
		}
		pv, hv := it.phi, it.hops+1
		if v == to || (idle && to >= 0 && !slices.ContainsFunc(nodes, func(u widestNode) bool {
			return u.phi < pv || (u.phi == pv && u.hops > hv)
		})) {
			break
		}
		pops++
		arcs := net.OutArcs(v)
		if reversed {
			arcs = net.InArcs(v)
		}
		relaxed := relaxations
		for _, a := range arcs {
			u := &nodes[a.To]
			if u.phi > pv || (u.phi == pv && u.hops <= hv) {
				continue
			}
			b := min(pv, linkWeight(caps.Link[a.Link], linkLoad[a.Link], bits))
			if b > u.phi || (b == u.phi && hv < u.hops) {
				*u = widestNode{phi: b, prevLink: a.Link, hops: hv}
				relaxations++
				s.pq.push(widestItem{ncp: int32(a.To), phi: b, hops: hv})
			}
		}
		idle = relaxations == relaxed && len(arcs) >= n-1
	}
	return relaxations, pops
}

// linkWeight is the per-link bottleneck a TT of `bits` would see on a link
// with residual capacity cap and already-placed load: cap / (bits + load).
// A zero-demand TT on an idle link constrains nothing (+Inf).
func linkWeight(cap, load, bits float64) float64 {
	demand := bits + load
	if demand <= 0 {
		return math.Inf(1)
	}
	return cap / demand
}

type widestItem struct {
	phi  float64
	ncp  int32
	hops int32
}

// widestQueue is a binary max-heap on phi, then min on hops, hand-rolled
// like simnet's eventHeap so that a push does not box its item. push and
// pop sift exactly as container/heap's Push and Pop do.
type widestQueue []widestItem

func (q widestQueue) less(i, j int) bool {
	if q[i].phi != q[j].phi {
		return q[i].phi > q[j].phi
	}
	return q[i].hops < q[j].hops
}

func (q *widestQueue) push(it widestItem) {
	*q = append(*q, it)
	s := *q
	for i := len(s) - 1; i > 0 && s.less(i, (i-1)/2); i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
}

func (q *widestQueue) pop() widestItem {
	s := *q
	top, n := s[0], len(s)-1
	s[0], s = s[n], s[:n]
	*q = s
	for i := 0; 2*i+1 < n; {
		child := 2*i + 1
		if child+1 < n && s.less(child+1, child) {
			child++
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}
