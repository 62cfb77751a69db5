package baselines

import (
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// VNE implements the topology-aware node-ranking embedding of Cheng et al.
// (SIGCOMM CCR 2011), mapped onto the task assignment problem: both NCPs
// and CTs are ranked by a random-walk NodeRank seeded with
// resource x adjacent-bandwidth strength, and the k-th ranked free CT is
// embedded on the k-th ranked NCP (wrapping when there are more CTs than
// NCPs). Transport tasks are then routed on hop-shortest paths. Unlike
// SPARCLE the resource demands are treated as fixed, so the mapping never
// adapts to where the application's stream rate actually bottlenecks.
type VNE struct{}

var _ placement.Algorithm = VNE{}

// Name implements placement.Algorithm.
func (VNE) Name() string { return "VNE" }

// Assign implements placement.Algorithm.
func (VNE) Assign(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*placement.Placement, error) {
	p := placement.New(g, net)
	if err := placePins(g, pins, p); err != nil {
		return nil, err
	}

	ncpRank := nodeRank(ncpStrength(net, caps), ncpAdjacency(net))
	ncpOrder := make([]int, net.NumNCPs())
	for i := range ncpOrder {
		ncpOrder[i] = i
	}
	sortByScoreDesc(ncpOrder, ncpRank)

	ctRank := nodeRank(ctStrength(g), ctAdjacency(g))
	free := freeCTs(g, pins)
	freeInts := make([]int, len(free))
	for i, ct := range free {
		freeInts[i] = int(ct)
	}
	sortByScoreDesc(freeInts, ctRank)

	for k, cti := range freeInts {
		host := network.NCPID(ncpOrder[k%len(ncpOrder)])
		if err := p.PlaceCT(taskgraph.CTID(cti), host); err != nil {
			return nil, err
		}
	}
	if err := routeShortest(p, net); err != nil {
		return nil, err
	}
	return p, nil
}

// ncpStrength is the RW-MaxMatch seed H(v) = total residual capacity of v
// times the total residual bandwidth of its incident links.
func ncpStrength(net *network.Network, caps *network.Capacities) []float64 {
	h := make([]float64, net.NumNCPs())
	for v := 0; v < net.NumNCPs(); v++ {
		capSum := 0.0
		for _, a := range caps.NCP(network.NCPID(v)) {
			capSum += a
		}
		bwSum := 0.0
		for _, l := range net.Incident(network.NCPID(v)) {
			bwSum += caps.Link[l]
		}
		h[v] = capSum * bwSum
	}
	return h
}

func ncpAdjacency(net *network.Network) [][]int {
	adj := make([][]int, net.NumNCPs())
	for v := 0; v < net.NumNCPs(); v++ {
		for _, l := range net.Incident(network.NCPID(v)) {
			adj[v] = append(adj[v], int(net.Other(l, network.NCPID(v))))
		}
	}
	return adj
}

// ctStrength is H(i) = total requirement of CT i times the total bits of
// its adjacent TTs (mirroring the substrate seed on the virtual graph).
func ctStrength(g *taskgraph.Graph) []float64 {
	h := make([]float64, g.NumCTs())
	for i := 0; i < g.NumCTs(); i++ {
		ct := taskgraph.CTID(i)
		reqSum := 0.0
		for _, a := range g.CT(ct).Req {
			reqSum += a
		}
		h[i] = reqSum * adjacentTraffic(g, ct)
	}
	return h
}

func ctAdjacency(g *taskgraph.Graph) [][]int {
	adj := make([][]int, g.NumCTs())
	for i := 0; i < g.NumCTs(); i++ {
		ct := taskgraph.CTID(i)
		for _, ttID := range g.AdjacentTTs(ct) {
			tt := g.TT(ttID)
			other := tt.From
			if other == ct {
				other = tt.To
			}
			adj[i] = append(adj[i], int(other))
		}
	}
	return adj
}

// nodeRank runs the PageRank-style random walk of RW-MaxMatch: with
// probability 1-d the walker restarts according to the normalized strength
// seed, otherwise it moves to a neighbor proportionally to the neighbor's
// strength. Returns the stationary visiting probabilities.
func nodeRank(strength []float64, adj [][]int) []float64 {
	const (
		damping    = 0.85
		iterations = 60
	)
	n := len(strength)
	if n == 0 {
		return nil
	}
	seed := make([]float64, n)
	total := 0.0
	for _, s := range strength {
		total += s
	}
	for i := range seed {
		if total > 0 {
			seed[i] = strength[i] / total
		} else {
			seed[i] = 1 / float64(n)
		}
	}
	rank := append([]float64(nil), seed...)
	next := make([]float64, n)
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = (1 - damping) * seed[i]
		}
		for v := 0; v < n; v++ {
			nbrs := adj[v]
			if len(nbrs) == 0 {
				// Dangling mass restarts via the seed.
				for i := range next {
					next[i] += damping * rank[v] * seed[i]
				}
				continue
			}
			wSum := 0.0
			for _, u := range nbrs {
				wSum += strength[u]
			}
			for _, u := range nbrs {
				w := 1 / float64(len(nbrs))
				if wSum > 0 {
					w = strength[u] / wSum
				}
				next[u] += damping * rank[v] * w
			}
		}
		rank, next = next, rank
	}
	return rank
}
