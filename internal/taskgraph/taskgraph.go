// Package taskgraph models a stream processing application as a directed
// acyclic graph of computation tasks (CTs, vertices) connected by transport
// tasks (TTs, edges), following §III.A of the SPARCLE paper.
//
// Every CT carries a resource requirement vector: the amount of each
// resource needed to process one data unit (e.g. CPU megacycles per image).
// Every TT carries the number of bits moved per data unit between its two
// endpoint CTs. Source CTs (no incoming TTs) model data sources such as
// cameras; sink CTs (no outgoing TTs) model result consumers. Both usually
// have zero resource requirements and are pinned to fixed hosts by the
// scheduler.
package taskgraph

import (
	"errors"
	"fmt"
	"math"

	"sparcle/internal/graph"
	"sparcle/internal/resource"
)

// CTID identifies a computation task within one Graph (a dense index).
type CTID int

// TTID identifies a transport task within one Graph (a dense index).
type TTID int

// CT is a computation task: one processing step of the application.
type CT struct {
	Name string
	// Req holds the resources needed to process a single data unit.
	Req resource.Vector
}

// TT is a transport task: the data moved between two consecutive CTs for
// each data unit.
type TT struct {
	Name string
	From CTID
	To   CTID
	// Bits is the amount of data transported per data unit, in the same
	// unit as link bandwidth (so Bits/Bandwidth is seconds per data unit).
	Bits float64
}

// Graph is an immutable, validated application task graph.
type Graph struct {
	name string
	cts  []CT
	tts  []TT

	out [][]TTID // outgoing TTs per CT
	in  [][]TTID // incoming TTs per CT

	sources []CTID
	sinks   []CTID
	topo    []CTID

	// desc[i] is the set of CTs strictly reachable from i following TTs.
	desc []graph.Bitset
	// minTT[i][j] is the TT with the smallest Bits among the TTs lying on
	// directed paths between i and j (in either direction); -1 if i and j
	// are not connected by any directed path. See Algorithm 2 line 12.
	minTT [][]TTID
}

// Builder incrementally constructs a Graph.
type Builder struct {
	name string
	cts  []CT
	tts  []TT
	err  error
}

// NewBuilder returns a Builder for an application with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddCT appends a computation task and returns its id. The requirement
// vector is cloned; a nil requirement means the CT consumes nothing (typical
// for data sources and result consumers).
func (b *Builder) AddCT(name string, req resource.Vector) CTID {
	b.cts = append(b.cts, CT{Name: name, Req: req.Clone()})
	return CTID(len(b.cts) - 1)
}

// AddTT appends a transport task carrying bits per data unit from CT `from`
// to CT `to` and returns its id. Errors (bad endpoints, negative bits) are
// deferred to Build.
func (b *Builder) AddTT(name string, from, to CTID, bits float64) TTID {
	id := TTID(len(b.tts))
	if from < 0 || int(from) >= len(b.cts) || to < 0 || int(to) >= len(b.cts) {
		b.setErr(fmt.Errorf("taskgraph: TT %q references undefined CT (%d -> %d)", name, from, to))
	}
	if from == to {
		b.setErr(fmt.Errorf("taskgraph: TT %q is a self-loop on CT %d", name, from))
	}
	if bits < 0 || math.IsNaN(bits) || math.IsInf(bits, 0) {
		b.setErr(fmt.Errorf("taskgraph: TT %q has invalid bits %v", name, bits))
	}
	b.tts = append(b.tts, TT{Name: name, From: from, To: to, Bits: bits})
	return id
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the graph and freezes it. It fails if the graph is empty,
// has invalid tasks, is not acyclic, or has a CT that is neither a source
// nor reachable from one.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.cts) == 0 {
		return nil, errors.New("taskgraph: graph has no computation tasks")
	}
	for i, ct := range b.cts {
		if !ct.Req.NonNegative() {
			return nil, fmt.Errorf("taskgraph: CT %q (%d) has a negative or NaN resource requirement %v", ct.Name, i, ct.Req)
		}
	}
	g := &Graph{
		name: b.name,
		cts:  append([]CT(nil), b.cts...),
		tts:  append([]TT(nil), b.tts...),
	}
	n := len(g.cts)
	g.out = make([][]TTID, n)
	g.in = make([][]TTID, n)
	adj := make([][]int, n)
	for id, tt := range g.tts {
		g.out[tt.From] = append(g.out[tt.From], TTID(id))
		g.in[tt.To] = append(g.in[tt.To], TTID(id))
		adj[tt.From] = append(adj[tt.From], int(tt.To))
	}
	order, err := graph.TopoSort(adj)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: %q: %w", b.name, err)
	}
	g.topo = make([]CTID, n)
	for i, v := range order {
		g.topo[i] = CTID(v)
	}
	for i := 0; i < n; i++ {
		if len(g.in[i]) == 0 {
			g.sources = append(g.sources, CTID(i))
		}
		if len(g.out[i]) == 0 {
			g.sinks = append(g.sinks, CTID(i))
		}
	}
	g.desc, err = graph.Reachability(adj)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: %q: %w", b.name, err)
	}
	g.buildMinTT()
	return g, nil
}

// buildMinTT computes, for every ordered reachable pair (i, j), the TT with
// minimum Bits among TTs on directed i->j paths. A TT (u -> v) lies on some
// i->j path iff u is i or a descendant of i, and j is v or a descendant
// of v.
func (g *Graph) buildMinTT() {
	n := len(g.cts)
	g.minTT = make([][]TTID, n)
	for i := range g.minTT {
		g.minTT[i] = make([]TTID, n)
		for j := range g.minTT[i] {
			g.minTT[i][j] = -1
		}
	}
	onPath := func(i, u CTID) bool { return i == u || g.desc[i].Has(int(u)) }
	for id, tt := range g.tts {
		for i := CTID(0); i < CTID(n); i++ {
			if !onPath(i, tt.From) {
				continue
			}
			for j := CTID(0); j < CTID(n); j++ {
				if i == j || !onPath(tt.To, j) {
					continue
				}
				cur := g.minTT[i][j]
				if cur < 0 || tt.Bits < g.tts[cur].Bits {
					g.minTT[i][j] = TTID(id)
				}
			}
		}
	}
}

// Name returns the application name.
func (g *Graph) Name() string { return g.name }

// NumCTs returns the number of computation tasks.
func (g *Graph) NumCTs() int { return len(g.cts) }

// NumTTs returns the number of transport tasks.
func (g *Graph) NumTTs() int { return len(g.tts) }

// CT returns the computation task with the given id.
func (g *Graph) CT(id CTID) CT { return g.cts[id] }

// TT returns the transport task with the given id.
func (g *Graph) TT(id TTID) TT { return g.tts[id] }

// Sources returns the CTs with no incoming TTs (data sources).
func (g *Graph) Sources() []CTID { return append([]CTID(nil), g.sources...) }

// Sinks returns the CTs with no outgoing TTs (result consumers).
func (g *Graph) Sinks() []CTID { return append([]CTID(nil), g.sinks...) }

// TopoOrder returns the CTs in a topological order.
func (g *Graph) TopoOrder() []CTID { return append([]CTID(nil), g.topo...) }

// OutTTs returns the outgoing transport tasks of ct.
func (g *Graph) OutTTs(ct CTID) []TTID { return g.out[ct] }

// InTTs returns the incoming transport tasks of ct.
func (g *Graph) InTTs(ct CTID) []TTID { return g.in[ct] }

// AdjacentTTs returns all TTs incident to ct (incoming and outgoing).
func (g *Graph) AdjacentTTs(ct CTID) []TTID {
	out := make([]TTID, 0, len(g.in[ct])+len(g.out[ct]))
	out = append(out, g.in[ct]...)
	out = append(out, g.out[ct]...)
	return out
}

// Reachable reports whether there is a directed path between i and j in
// either direction (i is an ancestor or a descendant of j). This is the
// reachability notion ν used by Algorithm 2's ranking.
func (g *Graph) Reachable(i, j CTID) bool {
	if i == j {
		return false
	}
	return g.desc[i].Has(int(j)) || g.desc[j].Has(int(i))
}

// Precedes reports whether data flows from i to j: some directed path of
// TTs leads from i to j.
func (g *Graph) Precedes(i, j CTID) bool { return g.desc[i].Has(int(j)) }

// MinBitsTTBetween returns the TT with the smallest Bits among the TTs on
// directed paths between i and j (in whichever direction they are
// connected), and false if the CTs are not connected. For directly adjacent
// CTs with a single connecting TT this is exactly that TT.
func (g *Graph) MinBitsTTBetween(i, j CTID) (TTID, bool) {
	if id := g.minTT[i][j]; id >= 0 {
		return id, true
	}
	if id := g.minTT[j][i]; id >= 0 {
		return id, true
	}
	return -1, false
}

// TotalReq returns the sum of all CT requirement vectors: the total
// computation consumed per data unit if every CT ran once per unit.
func (g *Graph) TotalReq() resource.Vector {
	total := resource.Vector{}
	for _, ct := range g.cts {
		total.Add(ct.Req)
	}
	return total
}

// TotalBits returns the sum of Bits over all TTs.
func (g *Graph) TotalBits() float64 {
	total := 0.0
	for _, tt := range g.tts {
		total += tt.Bits
	}
	return total
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("taskgraph %q (%d CTs, %d TTs)", g.name, len(g.cts), len(g.tts))
}
