package baselines

import (
	"fmt"

	"sparcle/internal/assign"
	"sparcle/internal/graph"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// routeWidest routes every unplaced TT of p (in TT id order) on the widest
// path given residual capacities and the loads accumulated so far, exactly
// like SPARCLE's own routing step.
func routeWidest(p *placement.Placement, net *network.Network, caps *network.Capacities) error {
	order := make([]taskgraph.TTID, p.Graph.NumTTs())
	for i := range order {
		order[i] = taskgraph.TTID(i)
	}
	return routeWidestOrdered(p, net, caps, order)
}

// ttOrders returns the TT routing orders the exhaustive Optimal search
// tries for each CT assignment: id order, reverse, heaviest-first and
// lightest-first.
func ttOrders(g *taskgraph.Graph) [][]taskgraph.TTID {
	n := g.NumTTs()
	id := make([]taskgraph.TTID, n)
	for i := range id {
		id[i] = taskgraph.TTID(i)
	}
	rev := make([]taskgraph.TTID, n)
	for i := range rev {
		rev[i] = taskgraph.TTID(n - 1 - i)
	}
	heavy := append([]taskgraph.TTID(nil), id...)
	sortTTsByBits(g, heavy, true)
	light := append([]taskgraph.TTID(nil), id...)
	sortTTsByBits(g, light, false)
	return [][]taskgraph.TTID{id, rev, heavy, light}
}

func sortTTsByBits(g *taskgraph.Graph, tts []taskgraph.TTID, desc bool) {
	for i := 1; i < len(tts); i++ {
		for j := i; j > 0; j-- {
			a, b := g.TT(tts[j-1]).Bits, g.TT(tts[j]).Bits
			if (desc && b > a) || (!desc && b < a) {
				tts[j-1], tts[j] = tts[j], tts[j-1]
			} else {
				break
			}
		}
	}
}

// routeWidestOrdered routes the unplaced TTs of p in the given order on
// widest paths.
func routeWidestOrdered(p *placement.Placement, net *network.Network, caps *network.Capacities, order []taskgraph.TTID) error {
	loads := make([]float64, net.NumLinks())
	for i, l := range p.LoadedLinks() {
		loads[l] = p.LinkLoads()[i]
	}
	for _, ttID := range order {
		if _, ok := p.Route(ttID); ok {
			continue
		}
		tt := p.Graph.TT(ttID)
		route, _, ok := assign.WidestPath(net, caps, loads, tt.Bits, p.Host(tt.From), p.Host(tt.To))
		if !ok {
			return fmt.Errorf("baselines: no route for TT %q: %w", tt.Name, placement.ErrInfeasible)
		}
		if err := p.PlaceTT(ttID, route); err != nil {
			return err
		}
		for _, l := range route {
			loads[l] += tt.Bits
		}
	}
	return nil
}

// routeShortest routes every unplaced TT of p on the hop-shortest path
// between its endpoint hosts, ignoring bandwidths entirely. This is the
// network-oblivious routing used by the T-Storm, VNE, HEFT and Random
// baselines.
func routeShortest(p *placement.Placement, net *network.Network) error {
	adj, via := hopAdjacency(net)
	for id := 0; id < p.Graph.NumTTs(); id++ {
		ttID := taskgraph.TTID(id)
		if _, ok := p.Route(ttID); ok {
			continue
		}
		tt := p.Graph.TT(ttID)
		route, ok := shortestRoute(adj, via, p.Host(tt.From), p.Host(tt.To))
		if !ok {
			return fmt.Errorf("baselines: no route for TT %q: %w", tt.Name, placement.ErrInfeasible)
		}
		if err := p.PlaceTT(ttID, route); err != nil {
			return err
		}
	}
	return nil
}

// hopAdjacency converts the network into neighbor lists plus a lookup of
// the link used between each adjacent pair (the first declared wins).
func hopAdjacency(net *network.Network) (adj [][]int, via map[[2]int]network.LinkID) {
	adj = make([][]int, net.NumNCPs())
	via = make(map[[2]int]network.LinkID)
	for v := 0; v < net.NumNCPs(); v++ {
		for _, l := range net.Incident(network.NCPID(v)) {
			u := int(net.Other(l, network.NCPID(v)))
			key := [2]int{v, u}
			if _, seen := via[key]; !seen {
				via[key] = l
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj, via
}

func shortestRoute(adj [][]int, via map[[2]int]network.LinkID, from, to network.NCPID) ([]network.LinkID, bool) {
	if from == to {
		return nil, true
	}
	dist, prev := graph.BFSPaths(adj, int(from))
	if dist[to] < 0 {
		return nil, false
	}
	var route []network.LinkID
	for v := int(to); v != int(from); v = prev[v] {
		route = append(route, via[[2]int{prev[v], v}])
	}
	for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
		route[i], route[j] = route[j], route[i]
	}
	return route, true
}

// placePins places all pinned CTs of g into a fresh placement.
func placePins(g *taskgraph.Graph, pins placement.Pins, p *placement.Placement) error {
	for _, src := range g.Sources() {
		if _, ok := pins[src]; !ok {
			return fmt.Errorf("baselines: source CT %q has no pinned host", g.CT(src).Name)
		}
	}
	for _, snk := range g.Sinks() {
		if _, ok := pins[snk]; !ok {
			return fmt.Errorf("baselines: sink CT %q has no pinned host", g.CT(snk).Name)
		}
	}
	cts := make([]taskgraph.CTID, 0, len(pins))
	for ct := range pins {
		cts = append(cts, ct)
	}
	for i := 1; i < len(cts); i++ {
		for j := i; j > 0 && cts[j] < cts[j-1]; j-- {
			cts[j], cts[j-1] = cts[j-1], cts[j]
		}
	}
	for _, ct := range cts {
		if err := p.PlaceCT(ct, pins[ct]); err != nil {
			return err
		}
	}
	return nil
}

// freeCTs returns the CTs of g that are not pinned, in id order.
func freeCTs(g *taskgraph.Graph, pins placement.Pins) []taskgraph.CTID {
	var out []taskgraph.CTID
	for ct := 0; ct < g.NumCTs(); ct++ {
		if _, ok := pins[taskgraph.CTID(ct)]; !ok {
			out = append(out, taskgraph.CTID(ct))
		}
	}
	return out
}
