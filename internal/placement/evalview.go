package placement

import (
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// EvalView is the snapshot side of the assignment engine's evaluation
// core: a dense, cache-friendly view of everything γ evaluation needs —
// residual element capacities, the per-data-unit loads of the placement
// under construction, and the current host of every CT. Scoring code
// treats it as immutable; only the mutation layer (the greedy state's
// place step) advances it, via ApplyCT/ApplyTT, and never while scorers
// are running. That discipline is what makes concurrent candidate scoring
// safe without any locking on the view.
//
// All resource vectors share one Interner whose universe is the network's
// capacity kinds plus the graph's requirement kinds, interned in
// deterministic order at snapshot build time; the map-based
// resource.Vector stays the API/JSON boundary type and never appears on
// the evaluation hot path.
type EvalView struct {
	// In is the kind interner all dense vectors below are indexed by.
	In *resource.Interner
	// Req[ct] is CT ct's dense per-data-unit requirement.
	Req []resource.Dense
	// CapNCP[v] is NCP v's dense residual capacity (snapshotted from the
	// Capacities handed to the algorithm, which it must not mutate).
	CapNCP []resource.Dense
	// LoadNCP[v] is the dense per-data-unit load the placement under
	// construction puts on NCP v (sum of hosted CT requirements).
	LoadNCP []resource.Dense
	// CapLink aliases the residual link bandwidths of the snapshotted
	// Capacities (already dense: one float64 per link).
	CapLink []float64
	// LoadLink[l] is the per-data-unit bits routed on link l so far.
	LoadLink []float64
	// Host[ct] is the NCP hosting ct, -1 while unplaced.
	Host []network.NCPID

	// rows backs the dense rows of Req, CapNCP and LoadNCP.
	rows []float64
}

// NewEvalView builds into v the evaluation snapshot for one assignment of
// g on net against residual capacities caps, and returns v: it interns
// the kind universe (capacity kinds first, then requirement kinds),
// densifies capacities and requirements once, and starts with empty
// loads and no hosts. Every array is v's own from its previous snapshot,
// grown when too short (a zero EvalView grows them all), and every dense
// row is carved from one backing array, so a view reused across
// assignments of a network allocates nothing once it has grown.
func NewEvalView(v *EvalView, g *taskgraph.Graph, net *network.Network, caps *network.Capacities) *EvalView {
	if v.In == nil {
		v.In = resource.NewInterner()
	}
	in := v.In
	in.Reset()
	net.InternKinds(in)
	for ct := 0; ct < g.NumCTs(); ct++ {
		in.InternVector(g.CT(taskgraph.CTID(ct)).Req)
	}
	v.Req = resize(v.Req, g.NumCTs())
	v.CapNCP = resize(v.CapNCP, len(caps.NCP))
	v.LoadNCP = resize(v.LoadNCP, net.NumNCPs())
	v.CapLink = caps.Link
	v.LoadLink = resize(v.LoadLink, net.NumLinks())
	clear(v.LoadLink)
	v.Host = resize(v.Host, g.NumCTs())
	k := in.Len()
	v.rows = resize(v.rows, (len(v.Req)+len(v.CapNCP)+len(v.LoadNCP))*k)
	clear(v.rows)
	buf := v.rows
	row := func() resource.Dense {
		r := resource.Dense(buf[:k:k])
		buf = buf[k:]
		return r
	}
	for ct := range v.Req {
		v.Req[ct] = in.DenseInto(row(), g.CT(taskgraph.CTID(ct)).Req)
	}
	for n, vec := range caps.NCP {
		v.CapNCP[n] = in.DenseInto(row(), vec)
	}
	for n := range v.LoadNCP {
		v.LoadNCP[n] = row()
	}
	for ct := range v.Host {
		v.Host[ct] = -1
	}
	return v
}

// resize returns s resliced to n elements, reallocated only when its
// capacity is short; the elements keep whatever they held.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// RateWith returns the bottleneck service rate NCP host offers to its
// current load plus the candidate requirement extra — the NCP term of
// eq. (2) — computed entirely on dense slices. It is bit-identical to the
// map-based arithmetic it replaces (the same divisions feed the same min).
func (v *EvalView) RateWith(host network.NCPID, extra resource.Dense) float64 {
	return resource.RateDense(v.CapNCP[host], v.LoadNCP[host], extra)
}

// ApplyCT records ct landing on host: the host assignment and the host's
// load advance. Mutation-layer use only; never call concurrently with
// scorers reading the view.
func (v *EvalView) ApplyCT(ct taskgraph.CTID, host network.NCPID) {
	v.Host[ct] = host
	v.LoadNCP[host].Add(v.Req[ct])
}

// ApplyTT records a TT of the given bits committed to route. Mutation-
// layer use only.
func (v *EvalView) ApplyTT(route []network.LinkID, bits float64) {
	for _, l := range route {
		v.LoadLink[l] += bits
	}
}
