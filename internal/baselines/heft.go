package baselines

import (
	"math"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// HEFT implements Heterogeneous Earliest Finish Time list scheduling
// (Topcuoglu et al., TPDS 2002) for one data unit of the stream: CTs are
// prioritized by their upward rank (mean execution plus mean communication
// cost to the exit task) and greedily placed on the NCP that minimizes the
// earliest finish time of that data unit. The resulting placement is then
// evaluated at its steady-state bottleneck rate like every other algorithm.
// HEFT optimizes per-unit latency, not sustained rate, and ignores link
// bandwidth contention — the gap the Fig. 6 experiment shows.
type HEFT struct{}

var _ placement.Algorithm = HEFT{}

// Name implements placement.Algorithm.
func (HEFT) Name() string { return "HEFT" }

// Assign implements placement.Algorithm.
func (HEFT) Assign(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*placement.Placement, error) {
	p := placement.New(g, net)
	if err := placePins(g, pins, p); err != nil {
		return nil, err
	}

	execTime := execTimes(g, net, caps)
	meanExec := make([]float64, g.NumCTs())
	for i := range meanExec {
		meanExec[i] = meanFinite(execTime[i])
	}
	avgBW := averageBandwidth(net, caps)

	// Upward ranks over the DAG, computed in reverse topological order.
	rank := make([]float64, g.NumCTs())
	topo := g.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		ct := topo[i]
		best := 0.0
		for _, ttID := range g.OutTTs(ct) {
			tt := g.TT(ttID)
			comm := 0.0
			if avgBW > 0 {
				comm = tt.Bits / avgBW
			}
			if v := comm + rank[tt.To]; v > best {
				best = v
			}
		}
		rank[ct] = meanExec[ct] + best
	}

	order := sortCTs(g, func(i, j taskgraph.CTID) bool { return rank[i] > rank[j] })

	// Greedy EFT scheduling of one data unit.
	nodeFree := make([]float64, net.NumNCPs()) // when each NCP becomes idle
	finish := make([]float64, g.NumCTs())      // actual finish time per CT
	hops := hopDistances(net)
	for _, ct := range order {
		if h := p.Host(ct); h >= 0 {
			// Pinned: schedule on the pin.
			t := eft(g, net, caps, p, hops, finish, nodeFree, ct, h, execTime)
			finish[ct] = t
			nodeFree[h] = t
			continue
		}
		bestHost, bestT := network.NCPID(-1), math.Inf(1)
		for j := 0; j < net.NumNCPs(); j++ {
			host := network.NCPID(j)
			if math.IsInf(execTime[ct][host], 1) {
				continue
			}
			if t := eft(g, net, caps, p, hops, finish, nodeFree, ct, host, execTime); t < bestT {
				bestT = t
				bestHost = host
			}
		}
		if bestHost < 0 {
			// No NCP can execute this CT at all (zero capacity for a
			// required resource everywhere): fall back to the node with
			// the most capacity so that a complete (zero-rate) placement
			// still exists, mirroring how the paper reports zero rates
			// rather than failures.
			bestHost = richestNCP(net, caps)
			bestT = nodeFree[bestHost]
		}
		if err := p.PlaceCT(ct, bestHost); err != nil {
			return nil, err
		}
		finish[ct] = bestT
		nodeFree[bestHost] = bestT
	}
	if err := routeShortest(p, net); err != nil {
		return nil, err
	}
	return p, nil
}

// eft computes the earliest finish time of ct on host: data from each
// placed predecessor arrives after its finish time plus a transfer delay
// proportional to the hop distance between hosts over the mean bandwidth.
func eft(g *taskgraph.Graph, net *network.Network, caps *network.Capacities, p *placement.Placement, hops [][]int, finish, nodeFree []float64, ct taskgraph.CTID, host network.NCPID, execTime [][]float64) float64 {
	ready := 0.0
	avgBW := averageBandwidth(net, caps)
	for _, ttID := range g.InTTs(ct) {
		tt := g.TT(ttID)
		pred := tt.From
		pHost := p.Host(pred)
		if pHost < 0 {
			continue // predecessor not yet scheduled (lower rank); HEFT ignores it
		}
		comm := 0.0
		if pHost != host && avgBW > 0 {
			h := hops[pHost][host]
			if h < 0 {
				return math.Inf(1)
			}
			comm = float64(h) * tt.Bits / avgBW
		}
		if t := finish[pred] + comm; t > ready {
			ready = t
		}
	}
	start := math.Max(ready, nodeFree[host])
	e := execTime[ct][host]
	if math.IsInf(e, 1) {
		return math.Inf(1)
	}
	return start + e
}

// execTimes returns per-(CT, NCP) execution time of one data unit:
// max over resource kinds of requirement/capacity; +Inf when a required
// resource is absent.
func execTimes(g *taskgraph.Graph, net *network.Network, caps *network.Capacities) [][]float64 {
	out := make([][]float64, g.NumCTs())
	for i := range out {
		out[i] = make([]float64, net.NumNCPs())
		req := g.CT(taskgraph.CTID(i)).Req
		for j := 0; j < net.NumNCPs(); j++ {
			out[i][j] = unitTime(req, caps, network.NCPID(j))
		}
	}
	return out
}

// unitTime is max_r req[r]/cap[r] on NCP v (0 for an empty requirement,
// +Inf when a required capacity is zero).
func unitTime(req resource.Vector, caps *network.Capacities, v network.NCPID) float64 {
	t := 0.0
	for k, a := range req {
		if a <= 0 {
			continue
		}
		c := caps.Get(v, k)
		if c <= 0 {
			return math.Inf(1)
		}
		if v := a / c; v > t {
			t = v
		}
	}
	return t
}

func meanFinite(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

func averageBandwidth(net *network.Network, caps *network.Capacities) float64 {
	if net.NumLinks() == 0 {
		return 0
	}
	sum := 0.0
	for _, bw := range caps.Link {
		sum += bw
	}
	return sum / float64(net.NumLinks())
}

// hopDistances returns all-pairs hop counts (-1 when unreachable).
func hopDistances(net *network.Network) [][]int {
	adj := ncpAdjacency(net)
	out := make([][]int, net.NumNCPs())
	for v := range out {
		dist := bfsDist(adj, v)
		out[v] = dist
	}
	return out
}

func bfsDist(adj [][]int, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func richestNCP(net *network.Network, caps *network.Capacities) network.NCPID {
	best, bestSum := network.NCPID(0), -1.0
	for j := 0; j < net.NumNCPs(); j++ {
		sum := 0.0
		for _, a := range caps.NCP(network.NCPID(j)) {
			sum += a
		}
		if sum > bestSum {
			bestSum = sum
			best = network.NCPID(j)
		}
	}
	return best
}
