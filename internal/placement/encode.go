package placement

import (
	"fmt"

	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// Encoded is the JSON-serializable form of a complete Placement, used by
// the control plane's operation journal. It stores the induced loads and
// the loaded-element lists verbatim rather than re-deriving them at decode
// time: the lists are in first-loaded (algorithm) order and the load
// vectors are order-dependent floating-point sums, so recomputing them
// from the CT hosts would reproduce the same placement but not the same
// bytes — and recovery is held to byte equality.
type Encoded struct {
	// CTHosts maps each CT (by dense id) to its host NCP.
	CTHosts []int `json:"ctHosts"`
	// TTRoutes maps each TT (by dense id) to its link route; an empty
	// route means co-located endpoints.
	TTRoutes [][]int `json:"ttRoutes"`
	// LoadedNCPs / LoadedLinks are the nonzero-load element lists in
	// first-loaded order; NCPLoads / LinkLoads are the corresponding
	// per-data-unit loads, parallel to them.
	LoadedNCPs  []int             `json:"loadedNCPs,omitempty"`
	LoadedLinks []int             `json:"loadedLinks,omitempty"`
	NCPLoads    []resource.Vector `json:"ncpLoads,omitempty"`
	LinkLoads   []float64         `json:"linkLoads,omitempty"`
}

// Encode serializes a complete placement. Encoding an incomplete
// placement is an error: the journal only ever stores committed paths.
func (p *Placement) Encode() (Encoded, error) {
	if !p.Complete() {
		return Encoded{}, fmt.Errorf("placement: cannot encode incomplete placement of %s", p.Graph.Name())
	}
	enc := Encoded{
		CTHosts:  make([]int, len(p.ctHost)),
		TTRoutes: make([][]int, len(p.ttRoute)),
	}
	for i, h := range p.ctHost {
		enc.CTHosts[i] = int(h)
	}
	for i, route := range p.ttRoute {
		r := make([]int, len(route))
		for j, l := range route {
			r[j] = int(l)
		}
		enc.TTRoutes[i] = r
	}
	for i, v := range p.loadedNCPs {
		enc.LoadedNCPs = append(enc.LoadedNCPs, int(v))
		enc.NCPLoads = append(enc.NCPLoads, p.ncpLoads[i].Clone())
	}
	for i, l := range p.loadedLinks {
		enc.LoadedLinks = append(enc.LoadedLinks, int(l))
		enc.LinkLoads = append(enc.LinkLoads, p.linkLoads[i])
	}
	return enc, nil
}

// Decode reconstructs a placement of g on net from its encoded form,
// validating hosts and route contiguity (the same checks PlaceCT/PlaceTT
// enforce) so a corrupted-but-well-formed record cannot smuggle in an
// inconsistent placement.
func Decode(enc Encoded, g *taskgraph.Graph, net *network.Network) (*Placement, error) {
	if len(enc.CTHosts) != g.NumCTs() || len(enc.TTRoutes) != g.NumTTs() {
		return nil, fmt.Errorf("placement: decode: %d CT hosts / %d TT routes for graph with %d CTs / %d TTs",
			len(enc.CTHosts), len(enc.TTRoutes), g.NumCTs(), g.NumTTs())
	}
	if len(enc.LoadedNCPs) != len(enc.NCPLoads) || len(enc.LoadedLinks) != len(enc.LinkLoads) {
		return nil, fmt.Errorf("placement: decode: loaded-element lists and load lists disagree")
	}
	p := New(g, net)
	for ct, h := range enc.CTHosts {
		if h < 0 || h >= net.NumNCPs() {
			return nil, fmt.Errorf("placement: decode: CT %d hosted on invalid NCP %d", ct, h)
		}
		p.ctHost[ct] = network.NCPID(h)
	}
	for tt, route := range enc.TTRoutes {
		t := g.TT(taskgraph.TTID(tt))
		r := make([]network.LinkID, len(route))
		for j, l := range route {
			r[j] = network.LinkID(l)
		}
		if err := checkRoute(net, r, p.ctHost[t.From], p.ctHost[t.To]); err != nil {
			return nil, fmt.Errorf("placement: decode: TT %d: %w", tt, err)
		}
		if len(r) == 0 {
			r = nil // PlaceTT stores empty routes as nil; match it exactly
		}
		p.ttRoute[tt] = r
		p.ttPlaced[tt] = true
	}
	for i, v := range enc.LoadedNCPs {
		if v < 0 || v >= net.NumNCPs() {
			return nil, fmt.Errorf("placement: decode: loaded NCP %d out of range", v)
		}
		p.loadedNCPs = append(p.loadedNCPs, network.NCPID(v))
		p.ncpLoads = append(p.ncpLoads, enc.NCPLoads[i].Clone())
	}
	for i, l := range enc.LoadedLinks {
		if l < 0 || l >= net.NumLinks() {
			return nil, fmt.Errorf("placement: decode: loaded link %d out of range", l)
		}
		p.loadedLinks = append(p.loadedLinks, network.LinkID(l))
		p.linkLoads = append(p.linkLoads, enc.LinkLoads[i])
	}
	return p, nil
}
