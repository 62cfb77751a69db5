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
// Requirement and load rows are indexed by the network's Kinds, the
// columns of the capacity rows, plus one last slot that counts demands on
// kinds no NCP offers: such a demand has capacity zero on every NCP.
type EvalView struct {
	// Caps is the Capacities handed to the algorithm, which it must not
	// mutate; its NCP rows are the capacity rows γ divides.
	Caps *network.Capacities
	// Req[ct] is CT ct's dense per-data-unit requirement.
	Req []resource.Dense
	// LoadNCP[v] is the dense per-data-unit load the placement under
	// construction puts on NCP v (sum of hosted CT requirements).
	LoadNCP []resource.Dense
	// LoadLink[l] is the per-data-unit bits routed on link l so far.
	LoadLink []float64
	// Host[ct] is the NCP hosting ct, -1 while unplaced.
	Host []network.NCPID

	// rows backs the dense rows of Req and LoadNCP.
	rows []float64
}

// NewEvalView builds into v the evaluation snapshot for one assignment of
// g on net against residual capacities caps, and returns v: it densifies
// the requirements against the network's kinds once, and starts with
// empty loads and no hosts. Every array is v's own from its previous
// snapshot, grown when too short (a zero EvalView grows them all), and
// every dense row is carved from one backing array, so a view reused
// across assignments of a network allocates nothing once it has grown.
func NewEvalView(v *EvalView, g *taskgraph.Graph, net *network.Network, caps *network.Capacities) *EvalView {
	kinds := caps.Kinds()
	v.Caps = caps
	v.Req = resize(v.Req, g.NumCTs())
	v.LoadNCP = resize(v.LoadNCP, net.NumNCPs())
	v.LoadLink = resize(v.LoadLink, net.NumLinks())
	clear(v.LoadLink)
	v.Host = resize(v.Host, g.NumCTs())
	n := len(kinds) // a row's slot n counts demands on kinds no NCP offers
	k := n + 1
	v.rows = resize(v.rows, (len(v.Req)+len(v.LoadNCP))*k)
	clear(v.rows)
	buf := v.rows
	row := func() resource.Dense {
		r := resource.Dense(buf[:k:k])
		buf = buf[k:]
		return r
	}
	for ct := range v.Req {
		v.Req[ct] = row()
		if kinds.DenseInto(v.Req[ct][:n], g.CT(taskgraph.CTID(ct)).Req) {
			v.Req[ct][n] = 1
		}
	}
	for i := range v.LoadNCP {
		v.LoadNCP[i] = row()
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
// map-based arithmetic it replaces (the same divisions feed the same min):
// a demand on a kind no NCP offers divides a zero capacity, so the rate
// is 0.
func (v *EvalView) RateWith(host network.NCPID, extra resource.Dense) float64 {
	capacity, base := v.Caps.NCP(host), v.LoadNCP[host]
	k := len(capacity)
	if base[k]+extra[k] > 0 {
		return 0
	}
	return resource.RateDense(capacity, base[:k], extra[:k])
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
