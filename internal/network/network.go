// Package network models the dispersed computing network of §III.B of the
// SPARCLE paper: a graph whose vertices are networked computing points
// (NCPs) with multi-resource computation capacities and whose edges are
// communication links with bandwidth capacities. Every element (NCP or
// link) can fail independently with a known probability, which drives the
// availability analysis of BE and GR applications.
//
// The topology itself is immutable once built; the mutable residual
// capacities used by schedulers live in the separate Capacities type so
// that multiple what-if computations can share one Network.
package network

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sparcle/internal/graph"
	"sparcle/internal/resource"
)

// NCPID identifies a computing node within one Network (a dense index).
type NCPID int

// LinkID identifies a link within one Network (a dense index).
type LinkID int

// NCP is a networked computing point.
type NCP struct {
	Name string
	// Capacity holds the computation capabilities per resource kind, e.g.
	// CPU megacycles per second (MHz).
	Capacity resource.Vector
	// FailProb is the probability the NCP is failed or unavailable at any
	// point of its operation (independent across elements).
	FailProb float64
}

// Link is a communication link between two NCPs. By default links are
// undirected — the bandwidth is shared by traffic in both directions,
// the paper's default network model — but a link may be directed, usable
// only from A to B with its own dedicated bandwidth (footnote 2 of the
// paper: model the network "with either an undirected or a directed
// graph, if the bandwidth of the links between two nodes is shared or not
// shared in different directions").
type Link struct {
	Name string
	A, B NCPID
	// Bandwidth is the link capacity in bits per second.
	Bandwidth float64
	// FailProb is the probability the link is failed at any point.
	FailProb float64
	// Directed restricts traversal to the A -> B direction.
	Directed bool
}

// Arc is one link resolved from the NCP whose arc list holds it: To is the
// link's other end, so a search walking arcs never reads the Link itself.
type Arc struct {
	Link LinkID
	To   NCPID
}

// Network is an immutable dispersed computing network topology.
type Network struct {
	name  string
	ncps  []NCP
	links []Link
	// incident[v] lists the links incident to NCP v.
	incident [][]LinkID
	// outArcs[v] and inArcs[v] resolve the links traversable from and into
	// NCP v. Without directed links (symmetric) inArcs is outArcs, shared.
	outArcs, inArcs [][]Arc
	symmetric       bool
	// base holds every element's full capacity. Its kinds are every kind
	// an NCP's capacity names, interned once at Build in sorted order.
	base Capacities
}

// Builder incrementally constructs a Network.
type Builder struct {
	name  string
	ncps  []NCP
	links []Link
	err   error
}

// NewBuilder returns a Builder for a network with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddNCP appends a computing node and returns its id. The capacity vector
// is cloned.
func (b *Builder) AddNCP(name string, capacity resource.Vector, failProb float64) NCPID {
	if failProb < 0 || failProb > 1 || math.IsNaN(failProb) {
		b.setErr(fmt.Errorf("network: NCP %q has invalid failure probability %v", name, failProb))
	}
	b.ncps = append(b.ncps, NCP{Name: name, Capacity: capacity.Clone(), FailProb: failProb})
	return NCPID(len(b.ncps) - 1)
}

// AddLink appends an undirected link between a and b and returns its id.
func (b *Builder) AddLink(name string, a, c NCPID, bandwidth, failProb float64) LinkID {
	return b.addLink(name, a, c, bandwidth, failProb, false)
}

// AddDirectedLink appends a link usable only from `from` to `to` with its
// own dedicated bandwidth. Add a second directed link for the reverse
// direction to model full-duplex capacity.
func (b *Builder) AddDirectedLink(name string, from, to NCPID, bandwidth, failProb float64) LinkID {
	return b.addLink(name, from, to, bandwidth, failProb, true)
}

func (b *Builder) addLink(name string, a, c NCPID, bandwidth, failProb float64, directed bool) LinkID {
	id := LinkID(len(b.links))
	if a < 0 || int(a) >= len(b.ncps) || c < 0 || int(c) >= len(b.ncps) {
		b.setErr(fmt.Errorf("network: link %q references undefined NCP (%d -- %d)", name, a, c))
	}
	if a == c {
		b.setErr(fmt.Errorf("network: link %q is a self-loop on NCP %d", name, a))
	}
	if bandwidth < 0 || math.IsNaN(bandwidth) || math.IsInf(bandwidth, 0) {
		b.setErr(fmt.Errorf("network: link %q has invalid bandwidth %v", name, bandwidth))
	}
	if failProb < 0 || failProb > 1 || math.IsNaN(failProb) {
		b.setErr(fmt.Errorf("network: link %q has invalid failure probability %v", name, failProb))
	}
	b.links = append(b.links, Link{Name: name, A: a, B: c, Bandwidth: bandwidth, FailProb: failProb, Directed: directed})
	return id
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates and freezes the network. The network must be non-empty;
// disconnected networks are allowed (the paper's dispersed setting permits
// partitions), and schedulers treat unreachable host pairs as infeasible.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.ncps) == 0 {
		return nil, errors.New("network: no NCPs")
	}
	for _, n := range b.ncps {
		if !n.Capacity.NonNegative() {
			return nil, fmt.Errorf("network: NCP %q has a negative or NaN capacity %v", n.Name, n.Capacity)
		}
	}
	net := &Network{
		name:  b.name,
		ncps:  append([]NCP(nil), b.ncps...),
		links: append([]Link(nil), b.links...),
	}
	var kinds resource.Kinds
	for _, n := range net.ncps {
		for k := range n.Capacity {
			kinds = append(kinds, k)
		}
	}
	slices.Sort(kinds)
	net.base = Capacities{
		kinds:   slices.Compact(kinds),
		numNCPs: len(net.ncps),
		Link:    make([]float64, len(net.links)),
	}
	net.base.ncp = make([]float64, len(net.ncps)*len(net.base.kinds))
	for v, n := range net.ncps {
		net.base.kinds.DenseInto(net.base.NCP(NCPID(v)), n.Capacity)
	}
	for j, l := range net.links {
		net.base.Link[j] = l.Bandwidth
	}
	net.incident = make([][]LinkID, len(net.ncps))
	net.outArcs = make([][]Arc, len(net.ncps))
	net.symmetric = true
	for id, l := range net.links {
		net.incident[l.A] = append(net.incident[l.A], LinkID(id))
		net.outArcs[l.A] = append(net.outArcs[l.A], Arc{LinkID(id), l.B})
		if !l.Directed {
			net.incident[l.B] = append(net.incident[l.B], LinkID(id))
			net.outArcs[l.B] = append(net.outArcs[l.B], Arc{LinkID(id), l.A})
		}
		net.symmetric = net.symmetric && !l.Directed
	}
	net.inArcs = net.outArcs
	if !net.symmetric {
		net.inArcs = make([][]Arc, len(net.ncps))
		for id, l := range net.links {
			net.inArcs[l.B] = append(net.inArcs[l.B], Arc{LinkID(id), l.A})
			if !l.Directed {
				net.inArcs[l.A] = append(net.inArcs[l.A], Arc{LinkID(id), l.B})
			}
		}
	}
	return net, nil
}

// BaseNCP returns NCP v's full capacity as a row over the kinds of
// BaseCapacities. The row is the network's own: callers must not change
// it.
func (n *Network) BaseNCP(v NCPID) []float64 { return n.base.NCP(v) }

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// NumNCPs returns the number of computing nodes.
func (n *Network) NumNCPs() int { return len(n.ncps) }

// NumLinks returns the number of links.
func (n *Network) NumLinks() int { return len(n.links) }

// NCP returns the computing node with the given id.
func (n *Network) NCP(id NCPID) NCP { return n.ncps[id] }

// Link returns the link with the given id.
func (n *Network) Link(id LinkID) Link { return n.links[id] }

// Incident returns the links traversable from NCP v: every undirected
// link touching v plus the directed links leaving v.
func (n *Network) Incident(v NCPID) []LinkID { return n.incident[v] }

// OutArcs returns Incident(v) resolved into arcs: each link traversable
// from v with the NCP it leads to.
func (n *Network) OutArcs(v NCPID) []Arc { return n.outArcs[v] }

// InArcs returns the links traversable into NCP v, each with the NCP it
// comes from: walking them searches against the direction of flow.
func (n *Network) InArcs(v NCPID) []Arc { return n.inArcs[v] }

// Symmetric reports whether every link can be traversed both ways, so
// that whatever reaches v from u reaches u from v over the same links.
func (n *Network) Symmetric() bool { return n.symmetric }

// Other returns the endpoint of link l that is not v.
func (n *Network) Other(l LinkID, v NCPID) NCPID {
	link := n.links[l]
	if link.A == v {
		return link.B
	}
	return link.A
}

// Connected reports whether every NCP is reachable from NCP 0 following
// traversable links (for purely undirected networks this is ordinary
// connectivity; with directed links it is reachability from NCP 0).
func (n *Network) Connected() bool {
	adj := make([][]int, len(n.ncps))
	for v := range adj {
		for _, l := range n.incident[v] {
			adj[v] = append(adj[v], int(n.Other(l, NCPID(v))))
		}
	}
	return graph.Connected(adj)
}

// NCPIDByName returns the id of the NCP with the given name.
func (n *Network) NCPIDByName(name string) (NCPID, bool) {
	for i, ncp := range n.ncps {
		if ncp.Name == name {
			return NCPID(i), true
		}
	}
	return -1, false
}

// String returns a short human-readable description.
func (n *Network) String() string {
	return fmt.Sprintf("network %q (%d NCPs, %d links)", n.name, len(n.ncps), len(n.links))
}

// Capacities holds the mutable residual capacities of a network's elements:
// what remains available to the next application (or next task-assignment
// path) after earlier placements reserved their shares. NCP capacities are
// one slab of rows, one row per NCP and one column per kind an NCP's
// capacity names (Kinds); any other kind has capacity zero everywhere.
type Capacities struct {
	kinds   resource.Kinds
	numNCPs int
	// ncp holds NCP v's capacity of kinds[i] at v*len(kinds)+i.
	ncp []float64
	// Link[j] is the residual bandwidth of link j.
	Link []float64
}

// BaseCapacities returns a fresh Capacities equal to the network's full
// element capacities.
func (n *Network) BaseCapacities() *Capacities { return n.base.Clone() }

// Clone returns an independent copy of c.
func (c *Capacities) Clone() *Capacities { return c.CloneInto(new(Capacities)) }

// CloneInto makes dst an independent copy of c, reusing dst's arrays, and
// returns dst.
func (c *Capacities) CloneInto(dst *Capacities) *Capacities {
	dst.kinds, dst.numNCPs = c.kinds, c.numNCPs
	dst.ncp = append(dst.ncp[:0], c.ncp...)
	dst.Link = append(dst.Link[:0], c.Link...)
	return dst
}

// Kinds returns the kinds of every NCP row, sorted.
func (c *Capacities) Kinds() resource.Kinds { return c.kinds }

// NumNCPs returns the number of NCP rows.
func (c *Capacities) NumNCPs() int { return c.numNCPs }

// NCP returns NCP v's residual capacity row: entry i is its amount of
// Kinds()[i]. The row aliases c.
func (c *Capacities) NCP(v NCPID) []float64 {
	k := len(c.kinds)
	return c.ncp[int(v)*k : (int(v)+1)*k : (int(v)+1)*k]
}

// Get returns NCP v's residual capacity of kind k, zero for a kind no NCP
// offers.
func (c *Capacities) Get(v NCPID, k resource.Kind) float64 {
	if i := c.kinds.Index(k); i >= 0 {
		return c.ncp[int(v)*len(c.kinds)+i]
	}
	return 0
}

// DivMin is resource.DivMin of NCP v's residual capacity over load: the
// largest rate v sustains for the per-unit load. A positive load of a kind
// no NCP offers yields 0.
func (c *Capacities) DivMin(v NCPID, load resource.Vector) float64 {
	rate := math.Inf(1)
	for k, a := range load {
		if a <= 0 {
			continue
		}
		if r := c.Get(v, k) / a; r < rate {
			rate = r
		}
	}
	return rate
}

// SubtractNCP removes s*req from NCP v's residual capacity, clamping at
// zero to absorb floating-point residue. Kinds no NCP offers are dropped:
// their capacity stays zero.
func (c *Capacities) SubtractNCP(v NCPID, req resource.Vector, s float64) {
	row := c.NCP(v)
	for k, a := range req {
		i := c.kinds.Index(k)
		if i < 0 {
			continue
		}
		row[i] += a * -s
		if row[i] < 0 {
			row[i] = 0
		}
	}
}

// ScaleNCP multiplies NCP v's residual capacity of every kind by f.
func (c *Capacities) ScaleNCP(v NCPID, f float64) {
	row := c.NCP(v)
	for i := range row {
		row[i] *= f
	}
}

// SubtractLink removes s*bits from link l's residual bandwidth, clamping at
// zero.
func (c *Capacities) SubtractLink(l LinkID, bits, s float64) {
	c.Link[l] -= bits * s
	if c.Link[l] < 0 {
		c.Link[l] = 0
	}
}

// NonNegative reports whether no residual capacity is negative.
func (c *Capacities) NonNegative() bool {
	for _, a := range c.ncp {
		if a < 0 {
			return false
		}
	}
	for _, bw := range c.Link {
		if bw < 0 {
			return false
		}
	}
	return true
}
