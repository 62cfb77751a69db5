// Package shard partitions a dispersed computing network into regions and
// runs one scheduler (with its own warm BE solver) per region behind a
// thin admission router, following the decentralized-mapping shape of
// Asaduzzaman & Maheswaran: each region runs the paper's Algorithms 1–2
// locally, and the regions coordinate only at their borders.
//
// The partition is an edge cut: every NCP belongs to exactly one region,
// links with both endpoints in one region belong to that region's
// sub-network, and the links whose endpoints fall in different regions —
// the border links — belong to no region. Border-link capacity is owned
// by a lease table instead; a cross-region application reserves a lease
// for the traffic its cut task-transmissions carry, negotiated between
// the two shards at admission and released on removal, like a GR release
// inside one scheduler.
//
// With one shard the partition is the identity: the router drives one
// scheduler over the whole network, and its placements, availabilities
// and rates stay byte-identical to that scheduler's own
// (property-tested in router_test.go).
package shard

import (
	"fmt"

	"sparcle/internal/network"
)

// Region is one partition cell: a member set of the parent network and
// the extracted sub-network its scheduler runs against.
type Region struct {
	// Index is the region's position in Partitioning.Regions (the shard
	// id used in journal records and HTTP views).
	Index int
	// Members are the parent NCP ids in this region, ascending. The
	// view's local NCP i is Members[i].
	Members []network.NCPID
	// View is the extracted sub-network with id translations.
	View *network.RegionView
}

// BorderLink is a parent link whose endpoints lie in different regions.
type BorderLink struct {
	// Link is the parent link id.
	Link network.LinkID
	// A and B are the region indices of the two endpoints, A < B; EndA
	// and EndB are the corresponding parent endpoint NCPs.
	A, B       int
	EndA, EndB network.NCPID
}

// Partitioning is a complete region partition of a network.
type Partitioning struct {
	Parent  *network.Network
	Regions []*Region
	// Border lists the border links in ascending parent link order.
	Border []BorderLink

	regionOf []int // regionOf[v] is the region index of parent NCP v
}

// RegionOf returns the region index of a parent NCP.
func (p *Partitioning) RegionOf(v network.NCPID) int { return p.regionOf[v] }

// Partition cuts net into k regions. The algorithm is deterministic:
// farthest-point seeding (seed 0 is NCP 0; each next seed maximizes the
// BFS hop distance to all previous seeds, ties to the lowest id,
// unreachable NCPs preferred) followed by balanced BFS growth (the
// smallest region claims its next frontier NCP, ties to the lowest
// region index), with NCPs unreachable from every seed assigned, in
// ascending id order, to the then-smallest region. k = 1 returns the
// identity partition whose single view IS the parent network pointer,
// so a one-region router is bit-for-bit a lone scheduler.
func Partition(net *network.Network, k int) (*Partitioning, error) {
	n := net.NumNCPs()
	if k < 1 {
		return nil, fmt.Errorf("shard: need at least 1 region, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("shard: %d regions exceed %d NCPs", k, n)
	}
	p := &Partitioning{Parent: net, regionOf: make([]int, n)}
	if k == 1 {
		members := make([]network.NCPID, n)
		for v := range members {
			members[v] = network.NCPID(v)
		}
		p.Regions = []*Region{{Index: 0, Members: members, View: network.WholeRegion(net)}}
		return p, nil
	}

	// Undirected adjacency over all links (directed links still bind
	// their endpoints into one neighborhood for partitioning purposes).
	adj := make([][]network.NCPID, n)
	for l := 0; l < net.NumLinks(); l++ {
		lk := net.Link(network.LinkID(l))
		adj[lk.A] = append(adj[lk.A], lk.B)
		adj[lk.B] = append(adj[lk.B], lk.A)
	}

	seeds := farthestPointSeeds(adj, k)
	for v := range p.regionOf {
		p.regionOf[v] = -1
	}
	sizes := make([]int, k)
	queues := make([][]network.NCPID, k)
	for r, s := range seeds {
		p.regionOf[s] = r
		sizes[r] = 1
		queues[r] = append(queues[r], adj[s]...)
	}
	// Balanced BFS growth: each round, the smallest region still holding
	// a frontier claims one NCP and extends its frontier.
	for {
		r := -1
		for i := 0; i < k; i++ {
			if len(queues[i]) == 0 {
				continue
			}
			if r < 0 || sizes[i] < sizes[r] {
				r = i
			}
		}
		if r < 0 {
			break
		}
		var v network.NCPID = -1
		for len(queues[r]) > 0 {
			c := queues[r][0]
			queues[r] = queues[r][1:]
			if p.regionOf[c] < 0 {
				v = c
				break
			}
		}
		if v < 0 {
			continue
		}
		p.regionOf[v] = r
		sizes[r]++
		queues[r] = append(queues[r], adj[v]...)
	}
	// NCPs unreachable from every seed (disconnected networks are legal).
	for v := 0; v < n; v++ {
		if p.regionOf[v] >= 0 {
			continue
		}
		r := 0
		for i := 1; i < k; i++ {
			if sizes[i] < sizes[r] {
				r = i
			}
		}
		p.regionOf[v] = r
		sizes[r]++
	}

	for r := 0; r < k; r++ {
		var members []network.NCPID
		for v := 0; v < n; v++ {
			if p.regionOf[v] == r {
				members = append(members, network.NCPID(v))
			}
		}
		view, err := network.ExtractRegion(net, members)
		if err != nil {
			return nil, err
		}
		p.Regions = append(p.Regions, &Region{Index: r, Members: members, View: view})
	}
	for l := 0; l < net.NumLinks(); l++ {
		lk := net.Link(network.LinkID(l))
		ra, rb := p.regionOf[lk.A], p.regionOf[lk.B]
		if ra == rb {
			continue
		}
		bl := BorderLink{Link: network.LinkID(l), A: ra, B: rb, EndA: lk.A, EndB: lk.B}
		if rb < ra {
			bl.A, bl.B, bl.EndA, bl.EndB = rb, ra, lk.B, lk.A
		}
		p.Border = append(p.Border, bl)
	}
	return p, nil
}

// farthestPointSeeds picks k mutually distant NCPs: NCP 0, then
// repeatedly the NCP maximizing the BFS hop distance to the nearest
// already-chosen seed (unreachable counts as infinitely far; ties go to
// the lowest id).
func farthestPointSeeds(adj [][]network.NCPID, k int) []network.NCPID {
	n := len(adj)
	seeds := []network.NCPID{0}
	dist := bfsFrom(adj, 0)
	for len(seeds) < k {
		best, bestD := -1, -1
		for v := 0; v < n; v++ {
			if dist[v] == 0 {
				continue // a seed itself
			}
			d := dist[v]
			if d < 0 {
				d = n + 1 // unreachable: farther than any path
			}
			if d > bestD {
				best, bestD = v, d
			}
		}
		if best < 0 {
			// Fewer distinct positions than seeds requested (complete
			// graph of size < k cannot happen: k <= n). Fall back to the
			// lowest unused id.
			for v := 0; v < n; v++ {
				if dist[v] != 0 {
					best = v
					break
				}
			}
		}
		seeds = append(seeds, network.NCPID(best))
		for v, d := range bfsFrom(adj, network.NCPID(best)) {
			if dist[v] < 0 || (d >= 0 && d < dist[v]) {
				dist[v] = d
			}
		}
	}
	return seeds
}

// bfsFrom returns hop distances from src; unreachable NCPs get -1.
func bfsFrom(adj [][]network.NCPID, src network.NCPID) []int {
	dist := make([]int, len(adj))
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue := []network.NCPID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
