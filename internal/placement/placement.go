// Package placement represents one "task assignment path" (§III.B): a
// mapping of every computation task of an application onto an NCP and of
// every transport task onto a (possibly empty) path of links between the
// hosts of its endpoint CTs. It computes the per-data-unit load each
// placement induces on every network element and the resulting bottleneck
// processing rate x <= min_j C_j / sum of loads on j (§IV.A).
package placement

import (
	"errors"
	"fmt"
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// Pins maps CTs to fixed hosts. Data-source CTs are pinned to the NCPs
// where the data originates and result-consumer CTs to the NCPs that must
// receive results (Algorithm 2 lines 3-4); any other CT may be pinned too.
type Pins map[taskgraph.CTID]network.NCPID

// Clone returns an independent copy of p.
func (p Pins) Clone() Pins {
	out := make(Pins, len(p))
	for ct, ncp := range p {
		out[ct] = ncp
	}
	return out
}

// Algorithm is a task-assignment algorithm: SPARCLE's dynamic ranking or
// any of the baselines. Implementations must not mutate caps.
type Algorithm interface {
	// Name returns a short identifier used in experiment tables.
	Name() string
	// Assign produces a complete placement of g on net given the residual
	// capacities caps and pinned hosts.
	Assign(g *taskgraph.Graph, pins Pins, net *network.Network, caps *network.Capacities) (*Placement, error)
}

// ErrInfeasible is returned when no complete placement exists, e.g. the
// hosts of two adjacent CTs lie in disconnected network partitions.
var ErrInfeasible = errors.New("placement: no feasible task assignment")

// Placement maps every CT of a task graph to an NCP and every TT to a path
// of links. It corresponds to one task assignment path of the application.
type Placement struct {
	Graph *taskgraph.Graph
	Net   *network.Network

	ctHost   []network.NCPID // -1 while unplaced
	ttRoute  [][]network.LinkID
	ttPlaced []bool

	// loadedNCPs and loadedLinks list the elements with nonzero load, in
	// first-loaded order; ncpLoads and linkLoads hold the per-data-unit
	// load on each, parallel to them — the shape Encoded stores. A
	// placement costs its footprint, not the network: consumers
	// (constraint-row builders, capacity deltas, footprints) visit it in
	// O(nnz).
	loadedNCPs  []network.NCPID
	ncpLoads    []resource.Vector
	loadedLinks []network.LinkID
	linkLoads   []float64
}

// New returns an empty placement of g on net.
func New(g *taskgraph.Graph, net *network.Network) *Placement {
	p := &Placement{
		Graph:    g,
		Net:      net,
		ctHost:   make([]network.NCPID, g.NumCTs()),
		ttRoute:  make([][]network.LinkID, g.NumTTs()),
		ttPlaced: make([]bool, g.NumTTs()),
	}
	for i := range p.ctHost {
		p.ctHost[i] = -1
	}
	return p
}

// Clone returns a deep copy of p.
func (p *Placement) Clone() *Placement {
	out := &Placement{
		Graph:    p.Graph,
		Net:      p.Net,
		ctHost:   append([]network.NCPID(nil), p.ctHost...),
		ttRoute:  make([][]network.LinkID, len(p.ttRoute)),
		ttPlaced: append([]bool(nil), p.ttPlaced...),

		loadedNCPs:  slices.Clone(p.loadedNCPs),
		ncpLoads:    slices.Clone(p.ncpLoads),
		loadedLinks: slices.Clone(p.loadedLinks),
		linkLoads:   slices.Clone(p.linkLoads),
	}
	for i, r := range p.ttRoute {
		out.ttRoute[i] = append([]network.LinkID(nil), r...)
	}
	for i, v := range out.ncpLoads {
		out.ncpLoads[i] = v.Clone()
	}
	return out
}

// PlaceCT assigns ct to host and accumulates its requirement into the
// host's load. Placing an already placed CT is an error.
func (p *Placement) PlaceCT(ct taskgraph.CTID, host network.NCPID) error {
	if p.ctHost[ct] >= 0 {
		return fmt.Errorf("placement: CT %d already placed on NCP %d", ct, p.ctHost[ct])
	}
	if host < 0 || int(host) >= p.Net.NumNCPs() {
		return fmt.Errorf("placement: invalid host %d for CT %d", host, ct)
	}
	p.ctHost[ct] = host
	req := p.Graph.CT(ct).Req
	if i := slices.Index(p.loadedNCPs, host); i >= 0 {
		p.ncpLoads[i].Add(req)
		return nil
	}
	if req.IsZero() {
		return nil
	}
	// host's first load also carries the zero-valued kinds of the
	// zero-requirement CTs it already hosts, as a per-NCP sum would.
	load := resource.Vector{}
	for c, h := range p.ctHost {
		if h == host {
			load.Add(p.Graph.CT(taskgraph.CTID(c)).Req)
		}
	}
	p.loadedNCPs = append(p.loadedNCPs, host)
	p.ncpLoads = append(p.ncpLoads, load)
	return nil
}

// PlaceTT assigns tt to a route of links. Both endpoint CTs must already be
// placed and the route must form a contiguous path between their hosts (an
// empty route requires co-located endpoints).
func (p *Placement) PlaceTT(tt taskgraph.TTID, route []network.LinkID) error {
	if p.ttPlaced[tt] {
		return fmt.Errorf("placement: TT %d already placed", tt)
	}
	t := p.Graph.TT(tt)
	from, to := p.ctHost[t.From], p.ctHost[t.To]
	if from < 0 || to < 0 {
		return fmt.Errorf("placement: TT %d endpoints not placed yet", tt)
	}
	if err := checkRoute(p.Net, route, from, to); err != nil {
		return fmt.Errorf("placement: TT %d: %w", tt, err)
	}
	p.ttRoute[tt] = append([]network.LinkID(nil), route...)
	p.ttPlaced[tt] = true
	for _, l := range route {
		if i := slices.Index(p.loadedLinks, l); i >= 0 {
			p.linkLoads[i] += t.Bits
		} else if t.Bits > 0 {
			p.loadedLinks = append(p.loadedLinks, l)
			p.linkLoads = append(p.linkLoads, t.Bits)
		}
	}
	return nil
}

func checkRoute(net *network.Network, route []network.LinkID, from, to network.NCPID) error {
	cur := from
	for _, l := range route {
		if l < 0 || int(l) >= net.NumLinks() {
			return fmt.Errorf("invalid link %d in route", l)
		}
		link := net.Link(l)
		switch {
		case cur == link.A:
			cur = link.B
		case cur == link.B && !link.Directed:
			cur = link.A
		case cur == link.B:
			return fmt.Errorf("route traverses directed link %d against its direction at NCP %d", l, cur)
		default:
			return fmt.Errorf("route not contiguous at NCP %d (link %d joins %d--%d)", cur, l, link.A, link.B)
		}
	}
	if cur != to {
		return fmt.Errorf("route ends at NCP %d, want %d", cur, to)
	}
	return nil
}

// Host returns the NCP hosting ct, or -1 if unplaced.
func (p *Placement) Host(ct taskgraph.CTID) network.NCPID { return p.ctHost[ct] }

// Route returns the link route of tt and whether it has been placed.
func (p *Placement) Route(tt taskgraph.TTID) ([]network.LinkID, bool) {
	return p.ttRoute[tt], p.ttPlaced[tt]
}

// Complete reports whether every CT and TT has been placed.
func (p *Placement) Complete() bool {
	for _, h := range p.ctHost {
		if h < 0 {
			return false
		}
	}
	for _, ok := range p.ttPlaced {
		if !ok {
			return false
		}
	}
	return true
}

// NCPLoad returns the per-data-unit load vector this placement puts on NCP
// v (the sum of requirements of CTs hosted there), nil if it is zero, by
// searching the footprint. The vector is shared; do not mutate it.
func (p *Placement) NCPLoad(v network.NCPID) resource.Vector {
	if i := slices.Index(p.loadedNCPs, v); i >= 0 {
		return p.ncpLoads[i]
	}
	return nil
}

// LinkLoad returns the per-data-unit bits this placement puts on link l,
// by searching the footprint.
func (p *Placement) LinkLoad(l network.LinkID) float64 {
	if i := slices.Index(p.loadedLinks, l); i >= 0 {
		return p.linkLoads[i]
	}
	return 0
}

// LoadedNCPs returns the NCPs on which this placement induces a nonzero
// load, in first-loaded order. The slice is shared; callers must not
// mutate it.
func (p *Placement) LoadedNCPs() []network.NCPID { return p.loadedNCPs }

// LoadedLinks returns the links on which this placement induces a nonzero
// load, in first-loaded order. The slice is shared; callers must not
// mutate it.
func (p *Placement) LoadedLinks() []network.LinkID { return p.loadedLinks }

// NCPLoads returns the loads on LoadedNCPs, parallel to it. Shared; callers
// must not mutate it or its vectors.
func (p *Placement) NCPLoads() []resource.Vector { return p.ncpLoads }

// LinkLoads returns the loads on LoadedLinks, parallel to it. Shared;
// callers must not mutate it.
func (p *Placement) LinkLoads() []float64 { return p.linkLoads }

// Rate returns the maximum stable processing rate of this placement under
// the given residual capacities: min over elements of capacity / load
// (§IV.A). An incomplete placement has rate 0, and so does a complete one
// that loads no element, although it supports any rate: Rate is never
// +Inf, and a caller that must tell "unbounded" from "starved" checks
// LoadedNCPs and LoadedLinks itself.
func (p *Placement) Rate(caps *network.Capacities) float64 {
	if !p.Complete() {
		return 0
	}
	rate := -1.0
	for i, load := range p.ncpLoads {
		if load.IsZero() {
			continue
		}
		r := caps.DivMin(p.loadedNCPs[i], load)
		if rate < 0 || r < rate {
			rate = r
		}
	}
	for i, bits := range p.linkLoads {
		if bits <= 0 {
			continue
		}
		r := caps.Link[p.loadedLinks[i]] / bits
		if rate < 0 || r < rate {
			rate = r
		}
	}
	if rate < 0 {
		return 0 // loads nothing: see the doc comment
	}
	return rate
}

// Subtract reserves this placement's resources at the given rate in caps:
// every element loses rate * its per-unit load.
func (p *Placement) Subtract(caps *network.Capacities, rate float64) {
	for i, v := range p.loadedNCPs {
		caps.SubtractNCP(v, p.ncpLoads[i], rate)
	}
	for i, l := range p.loadedLinks {
		caps.SubtractLink(l, p.linkLoads[i], rate)
	}
}

// Validate checks structural integrity: completeness, pin adherence, and
// route contiguity for every TT.
func (p *Placement) Validate(pins Pins) error {
	if !p.Complete() {
		return errors.New("placement: incomplete")
	}
	for ct, want := range pins {
		if p.ctHost[ct] != want {
			return fmt.Errorf("placement: CT %d pinned to NCP %d but placed on %d", ct, want, p.ctHost[ct])
		}
	}
	for tt := 0; tt < p.Graph.NumTTs(); tt++ {
		t := p.Graph.TT(taskgraph.TTID(tt))
		if err := checkRoute(p.Net, p.ttRoute[tt], p.ctHost[t.From], p.ctHost[t.To]); err != nil {
			return fmt.Errorf("placement: TT %d: %w", tt, err)
		}
	}
	return nil
}

// UsedElements returns the element ids (see Element) whose failure breaks
// this task assignment path: every NCP hosting a CT and every link carrying
// a TT.
func (p *Placement) UsedElements() []Element {
	seen := make(map[Element]bool)
	var out []Element
	add := func(e Element) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for ct, h := range p.ctHost {
		if h >= 0 && ct < p.Graph.NumCTs() {
			add(NCPElement(h))
		}
	}
	for _, route := range p.ttRoute {
		for _, l := range route {
			add(LinkElement(p.Net, l))
		}
	}
	return out
}

// String renders the placement as "ct->host" and "tt->route" lists.
func (p *Placement) String() string {
	s := fmt.Sprintf("placement of %s on %s:", p.Graph.Name(), p.Net.Name())
	for ct, h := range p.ctHost {
		name := p.Graph.CT(taskgraph.CTID(ct)).Name
		if h < 0 {
			s += fmt.Sprintf(" %s->?", name)
			continue
		}
		s += fmt.Sprintf(" %s->%s", name, p.Net.NCP(h).Name)
	}
	return s
}

// Element identifies a failure-prone network element: an NCP or a link.
// NCP v encodes as v; link l encodes as NumNCPs + l of its network. The
// encoding is only meaningful relative to one Network.
type Element int

// NCPElement returns the element id of an NCP.
func NCPElement(v network.NCPID) Element { return Element(v) }

// LinkElement returns the element id of a link in net.
func LinkElement(net *network.Network, l network.LinkID) Element {
	return Element(net.NumNCPs() + int(l))
}

// FailProb returns the failure probability of element e in net.
func (e Element) FailProb(net *network.Network) float64 {
	if int(e) < net.NumNCPs() {
		return net.NCP(network.NCPID(e)).FailProb
	}
	return net.Link(network.LinkID(int(e) - net.NumNCPs())).FailProb
}

// Path couples a placement with the processing rate assigned to it. For GR
// applications Rate is the reserved rate; for BE applications it is the
// outcome of the proportional-fair allocation.
type Path struct {
	P    *Placement
	Rate float64
}
