package shard

import (
	"fmt"
	"slices"
	"strings"
)

// LeaseTable owns the border links' bandwidth. Regions never see border
// links in their sub-networks; a cross-region application instead
// acquires a lease — a bandwidth reservation on one border link sized to
// the traffic its cut task-transmissions carry — at admission, and the
// lease is released when the application is removed (or re-negotiated on
// repair), mirroring how a GR release returns reserved capacity inside
// one scheduler.
//
// The table is not concurrency-safe on its own; the Router serializes
// access under its border mutex.
type LeaseTable struct {
	part *Partitioning
	// base[i] is Border[i]'s nominal bandwidth; scale[i] the current
	// fluctuation factor (1 = nominal); leased[i] the sum of its leases
	// in app-name order, recomputed whenever one of them changes. A
	// snapshot lists leases by name, so a restored table sums them in
	// the same order and holds the same bits as the live one.
	base   []float64
	scale  []float64
	leased []float64
	// byApp maps a logical application name to its lease.
	byApp map[string]*Lease
}

// Lease is one granted border-link reservation.
type Lease struct {
	// App is the logical (router-level) application name.
	App string
	// Border is the index into Partitioning.Border.
	Border int
	// Bits is the cut traffic per data unit (sum of cut TT bits); Rate
	// the application rate, so Bits*Rate is the leased bandwidth.
	Bits, Rate float64
}

// Bandwidth returns the lease's reserved bandwidth.
func (l *Lease) Bandwidth() float64 { return l.Bits * l.Rate }

// NewLeaseTable returns an empty lease table over p's border links.
func NewLeaseTable(p *Partitioning) *LeaseTable {
	t := &LeaseTable{
		part:   p,
		base:   make([]float64, len(p.Border)),
		scale:  make([]float64, len(p.Border)),
		leased: make([]float64, len(p.Border)),
		byApp:  map[string]*Lease{},
	}
	for i, b := range p.Border {
		t.base[i] = p.Parent.Link(b.Link).Bandwidth
		t.scale[i] = 1
	}
	return t
}

// Capacity returns border link i's current (fluctuation-scaled)
// bandwidth.
func (t *LeaseTable) Capacity(i int) float64 { return t.base[i] * t.scale[i] }

// Available returns the unleased bandwidth of border link i.
func (t *LeaseTable) Available(i int) float64 {
	a := t.Capacity(i) - t.leased[i]
	if a < 0 {
		return 0
	}
	return a
}

// Leased returns the bandwidth currently leased on border link i.
func (t *LeaseTable) Leased(i int) float64 { return t.leased[i] }

// Acquire grants app a lease of bits*rate on border link i. It fails if
// the application already holds a lease or the link lacks the
// bandwidth.
func (t *LeaseTable) Acquire(app string, i int, bits, rate float64) (*Lease, error) {
	if _, ok := t.byApp[app]; ok {
		return nil, fmt.Errorf("shard: app %q already holds a lease", app)
	}
	bw := bits * rate
	if bw <= 0 {
		return nil, fmt.Errorf("shard: app %q lease bandwidth %v must be positive", app, bw)
	}
	const tol = 1 + 1e-9
	if t.leased[i]+bw > t.Capacity(i)*tol {
		return nil, fmt.Errorf("shard: border link %d: lease %v exceeds available %v",
			i, bw, t.Available(i))
	}
	l := &Lease{App: app, Border: i, Bits: bits, Rate: rate}
	t.restore(l)
	return l, nil
}

// Release returns app's leased bandwidth to its border link.
func (t *LeaseTable) Release(app string) (*Lease, error) {
	l, ok := t.byApp[app]
	if !ok {
		return nil, fmt.Errorf("shard: app %q holds no lease", app)
	}
	delete(t.byApp, app)
	t.resum(l.Border)
	return l, nil
}

// restore inserts a lease without capacity checks: journal replay
// applies recorded facts, it does not re-validate them.
func (t *LeaseTable) restore(l *Lease) {
	t.byApp[l.App] = l
	t.resum(l.Border)
}

// resum recomputes border link i's leased bandwidth from its leases, in
// name order.
func (t *LeaseTable) resum(i int) {
	var on []*Lease
	for _, l := range t.byApp {
		if l.Border == i {
			on = append(on, l)
		}
	}
	slices.SortFunc(on, func(a, b *Lease) int { return strings.Compare(a.App, b.App) })
	sum := 0.0
	for _, l := range on {
		sum += l.Bandwidth()
	}
	t.leased[i] = sum
}

// SetScale applies a fluctuation factor to border link i's capacity and
// reports whether the granted leases still fit.
func (t *LeaseTable) SetScale(i int, f float64) (fits bool) {
	t.scale[i] = f
	const tol = 1 + 1e-9
	return t.leased[i] <= t.Capacity(i)*tol
}

// Violated returns the logical names of applications whose leases no
// longer fit their border link's scaled capacity, in lease-order per
// link (deterministic: ascending border index, then insertion order is
// not tracked, so names are sorted by the caller if needed).
func (t *LeaseTable) Violated() []string {
	const tol = 1 + 1e-9
	var out []string
	for _, l := range t.byApp {
		if t.leased[l.Border] > t.Capacity(l.Border)*tol {
			out = append(out, l.App)
		}
	}
	return out
}

// Count returns the number of granted leases.
func (t *LeaseTable) Count() int { return len(t.byApp) }

// Utilization returns leased/capacity for border link i (0 when the
// scaled capacity is 0).
func (t *LeaseTable) Utilization(i int) float64 {
	c := t.Capacity(i)
	if c <= 0 {
		if t.leased[i] > 0 {
			return 1
		}
		return 0
	}
	return t.leased[i] / c
}

// beShareDiv is the geometric-sharing factor for best-effort cross-region
// admissions: each BE lease may take at most 1/beShareDiv of the border
// link's remaining headroom.
const beShareDiv = 8.0
