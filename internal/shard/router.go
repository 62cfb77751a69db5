package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
)

// Router is the thin admission front of a region-sharded control plane:
// one core scheduler per region, each under its own lock, plus the
// border-lease table. Intra-region operations touch exactly one shard
// lock, so unrelated regions admit concurrently; cross-region operations
// take the two shard locks (in region order, so they cannot deadlock)
// and the border mutex.
type Router struct {
	part  *Partitioning
	slots []*slot
	spans *obs.SpanTracer
	// metrics is the registry the shards share; the router counts each
	// logical verdict on it once (see countAdmission).
	metrics *obs.Registry

	// borderMu guards the lease table and border scales.
	borderMu    sync.Mutex
	leases      *LeaseTable
	borderScale map[int]float64

	// regMu guards the logical-name registry (apps). Registry claims take
	// it alone; whoever holds more locks takes them in the order
	// slot.mu (ascending region) < borderMu < regMu.
	regMu sync.Mutex
	apps  map[string]*appEntry

	// commit, when set, persists one Envelope per mutating operation
	// (see durable.go). The hook must be safe for concurrent calls:
	// shards commit under their own locks.
	commit EnvelopeHook
}

// slot is one region's scheduler with its lock.
type slot struct {
	mu     sync.Mutex
	region *Region
	sched  *core.Scheduler
	// group coalesces this shard's intra-region submits into group
	// commits; its commit closure takes mu once per group.
	group *core.GroupCommitter
	// op is the envelope of the multi-shard operation holding mu, if any;
	// the commit wrapper appends the shard's records to it (durable.go).
	op *Envelope
}

// appEntry routes a logical application name.
type appEntry struct {
	// shard owns an intra-region app; for a cross-region app it is the
	// lower region.
	shard int
	// cross describes an admitted cross-region app: its lease with the
	// metadata recovery needs (Op is empty).
	cross *LeaseRecord
	// claimed marks an in-flight admission holding the name.
	claimed bool
}

// New partitions net into k regions and builds a Router running one
// scheduler per region. newSched constructs each region's scheduler over
// its sub-network (for k = 1 the sub-network IS net).
func New(net *network.Network, k int, newSched func(sub *network.Network, region int) *core.Scheduler) (*Router, error) {
	return build(net, k, func(reg *Region) (*core.Scheduler, error) {
		return newSched(reg.View.Net, reg.Index), nil
	})
}

// build partitions net into k regions and gives each the scheduler
// newSched makes for it.
func build(net *network.Network, k int, newSched func(*Region) (*core.Scheduler, error)) (*Router, error) {
	part, err := Partition(net, k)
	if err != nil {
		return nil, err
	}
	r := &Router{
		part:        part,
		leases:      NewLeaseTable(part),
		borderScale: map[int]float64{},
		apps:        map[string]*appEntry{},
	}
	for _, reg := range part.Regions {
		sched, err := newSched(reg)
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", reg.Index, err)
		}
		s := &slot{region: reg, sched: sched}
		s.group = core.NewGroupCommitter(s.submitBatch, core.GroupOptions{Metrics: sched.Metrics()})
		r.slots = append(r.slots, s)
	}
	r.metrics = r.slots[0].sched.Metrics()
	describeMetrics(r.metrics)
	return r, nil
}

// Metric names of the logical verdicts, counted once per application or
// operation however many regions it spans.
const (
	metricAdmissions   = "sparcle_admissions_total"
	metricRepairs      = "sparcle_repairs_total"
	metricFluctuations = "sparcle_fluctuations_total"
)

// describeMetrics sets the verdict families' help and materializes
// their series, so they are visible before traffic.
func describeMetrics(reg *obs.Registry) {
	reg.SetHelp(metricAdmissions, "Total admission decisions by application class and outcome.")
	reg.SetHelp(metricRepairs, "Total repair attempts on guaranteed-rate applications by outcome.")
	reg.SetHelp(metricFluctuations, "Total capacity fluctuations applied.")
	for _, class := range []core.Class{core.GuaranteedRate, core.BestEffort} {
		for _, outcome := range []string{"admitted", "rejected", "error"} {
			reg.Counter(metricAdmissions, obs.L("class", class.String()), obs.L("outcome", outcome))
		}
	}
	for _, outcome := range []string{"repaired", "failed"} {
		reg.Counter(metricRepairs, obs.L("outcome", outcome))
	}
	reg.Counter(metricFluctuations)
}

// countAdmission counts one logical admission verdict.
func (r *Router) countAdmission(class core.Class, err error) {
	r.metrics.Counter(metricAdmissions, obs.L("class", class.String()), obs.L("outcome", core.SubmitOutcome(err))).Inc()
}

// Partitioning exposes the region partition (read-only).
func (r *Router) Partitioning() *Partitioning { return r.part }

// NumShards returns the number of regions.
func (r *Router) NumShards() int { return len(r.slots) }

// Shard returns region i's scheduler. The caller must not mutate
// through it while the router is serving (the router owns the locks);
// tests use it to compare one-region state against a lone
// scheduler.
func (r *Router) Shard(i int) *core.Scheduler { return r.slots[i].sched }

// SetSpans attaches a span tracer for router-level spans (the per-shard
// lock.wait children) and propagates it to every shard scheduler, so the
// shards' own operation spans (core.batch and its pipeline stages) keep
// flowing.
func (r *Router) SetSpans(st *obs.SpanTracer) {
	r.spans = st
	for _, s := range r.slots {
		s.sched.SetSpans(st)
	}
}

// lock acquires the slot's mutex, attributing the wait to a lock.wait
// child of sp, and installs sp as the shard scheduler's request span so
// its operation spans nest under the request. unlock clears the bracket
// before releasing the mutex.
func (s *slot) lock(sp *obs.Span) {
	w := sp.Child("lock.wait")
	w.SetInt("shard", int64(s.region.Index))
	s.mu.Lock()
	w.End()
	s.sched.SetRequestSpan(sp)
}

func (s *slot) unlock() {
	s.sched.SetRequestSpan(nil)
	s.mu.Unlock()
}

// detach copies a shard's placement, path rates included, while the shard
// lock is still held. A result is rendered after the lock is released,
// when the next group's re-solve is already writing the resident's rates;
// the placements behind the paths never change and stay shared.
func detach(pa *core.PlacedApp) *core.PlacedApp {
	if pa == nil {
		return nil
	}
	cp := *pa
	cp.Paths = append([]placement.Path(nil), pa.Paths...)
	return &cp
}

// submitBatch runs one atomic batch on the shard's scheduler under its
// lock and detaches the placements before releasing it.
func (s *slot) submitBatch(apps []core.App, sp *obs.Span) ([]core.BatchResult, error) {
	s.lock(sp)
	defer s.unlock()
	res, err := s.sched.SubmitBatch(apps)
	for i := range res {
		res[i].App = detach(res[i].App)
	}
	return res, err
}

// repair repairs one shard-local app under the shard's lock.
func (s *slot) repair(name string, sp *obs.Span) (*core.PlacedApp, error) {
	s.lock(sp)
	defer s.unlock()
	pa, err := s.sched.Repair(name)
	return detach(pa), err
}

// Result is one admission's outcome.
type Result struct {
	// Shard is the owning region (for cross apps, the lower region).
	Shard int
	// App is the placed application as the operation left it (a detached
	// copy: later re-solves do not move its rates): the shard's own
	// placement for intra-region apps, or a synthesized logical view (no
	// paths — they live region-locally in the halves) for cross-region
	// apps.
	App *core.PlacedApp
	// Cross is set for cross-region admissions.
	Cross *CrossInfo
}

// CrossInfo describes a cross-region placement.
type CrossInfo struct {
	A, B         int
	HalfA, HalfB *core.PlacedApp
	Border       int
	BorderLink   string
	Bits         float64
	Rate         float64
	Availability float64
}

// checkName rejects logical names that could collide with half names.
func (r *Router) checkName(name string) error {
	if len(r.slots) > 1 && strings.Contains(name, halfSep) {
		return fmt.Errorf("shard: app name %q may not contain %q in a sharded deployment: %w",
			name, halfSep, core.ErrRejected)
	}
	return nil
}

// claim reserves a logical name in the registry; it fails on duplicates.
func (r *Router) claim(name string) error {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if _, ok := r.apps[name]; ok {
		return fmt.Errorf("shard: application %q already admitted: %w", name, core.ErrRejected)
	}
	r.apps[name] = &appEntry{claimed: true}
	return nil
}

func (r *Router) unclaim(name string) {
	r.regMu.Lock()
	delete(r.apps, name)
	r.regMu.Unlock()
}

func (r *Router) settle(name string, e *appEntry) {
	r.regMu.Lock()
	e.claimed = false
	r.apps[name] = e
	r.regMu.Unlock()
}

// lookup returns the registry entry of an admitted (settled) name.
func (r *Router) lookup(name string) (*appEntry, error) {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	e, ok := r.apps[name]
	if !ok || e.claimed {
		return nil, fmt.Errorf("shard: no admitted application named %q: %w", name, core.ErrNotFound)
	}
	return e, nil
}

// Submit classifies app and admits it: intra-region apps route, under
// only their shard's lock, to their region's scheduler; cross-region
// apps run the two-phase border-lease admission. sp (nil-safe) parents
// the lock.wait and shard operation spans.
func (r *Router) Submit(app core.App, sp *obs.Span) (*Result, error) {
	regions, err := r.route(app)
	if err != nil {
		return nil, err
	}
	if len(regions) == 2 {
		return r.submitCross(app, regions[0], regions[1], sp)
	}
	return r.submitIntra(app, regions[0], sp)
}

// route checks app's name and returns the regions its pins span: two for
// a cross-region app, else its one shard. An app that pins no CT is
// rejected here, counted once, without a shard lock: Algorithm 2 places
// only graphs whose sources and sinks are pinned, so every shard would
// reject it.
func (r *Router) route(app core.App) ([]int, error) {
	if err := r.checkName(app.Name); err != nil {
		return nil, err
	}
	regions, err := r.part.classify(app)
	if err == nil && len(regions) == 0 {
		err = fmt.Errorf("shard: app %q pins no CT; every source and sink must be pinned to a host: %w",
			app.Name, core.ErrRejected)
		r.countAdmission(app.QoS.Class, err)
	}
	return regions, err
}

func (r *Router) submitIntra(app core.App, shard int, sp *obs.Span) (*Result, error) {
	local, err := r.claimIn(app, shard)
	if err != nil {
		return nil, err
	}
	// Park with the shard's committer; the leader takes the shard lock
	// once for everyone it drains.
	res, gerr := r.slots[shard].group.Submit(local, sp)
	r.countAdmission(app.QoS.Class, res.Err)
	if err = cmp.Or(res.Err, gerr); err != nil {
		r.unclaim(app.Name)
		return nil, err
	}
	r.settle(app.Name, &appEntry{shard: shard})
	return &Result{Shard: shard, App: res.App}, nil
}

// claimIn claims app's name and localizes it to shard's region view,
// releasing the name again if it does not localize.
func (r *Router) claimIn(app core.App, shard int) (core.App, error) {
	if err := r.claim(app.Name); err != nil {
		return core.App{}, err
	}
	local, err := localizeApp(app, r.slots[shard].region.View)
	if err != nil {
		r.unclaim(app.Name)
	}
	return local, err
}

// rateTol is the relative tolerance inside which the two halves' rates
// are considered equal (floating-point slack of two independent solves).
const rateTol = 1e-9

// submitCross admits an app whose pins span regions a < b: decompose
// into two halves joined at the best border link, reserve side A capped
// by the lease headroom, side B capped by side A's achieved rate, trim
// side A down if B got less, then lease bits*rate on the border link.
// Any failure rolls back both halves; the combined availability
// aA*aB*(1-p_link) must clear the app's target. The whole admission,
// rollbacks included, commits as one envelope. A cross-region app's
// registry entry changes under its shard locks, like its halves and
// lease, so a snapshot never holds one without the others.
func (r *Router) submitCross(app core.App, a, b int, sp *obs.Span) (*Result, error) {
	if err := r.claim(app.Name); err != nil {
		return nil, err
	}
	var res *Result
	err := r.atomically(sp, []*slot{r.slots[a], r.slots[b]}, func(env *Envelope) error {
		var cross *LeaseRecord
		var err error
		if res, cross, err = r.admitCross(app, a, b); err != nil {
			return err
		}
		env.Lease = cross.with(leaseAcquire)
		r.settle(app.Name, &appEntry{shard: a, cross: cross})
		return nil
	})
	r.countAdmission(app.QoS.Class, err)
	if err != nil {
		r.unclaim(app.Name)
		return nil, err
	}
	return res, nil
}

// admitCross is the two-phase admission; the caller holds both shards.
func (r *Router) admitCross(app core.App, a, b int) (*Result, *LeaseRecord, error) {
	sa, sb := r.slots[a], r.slots[b]
	r.borderMu.Lock()
	border, ok := chooseBorder(r.part, r.leases, a, b)
	var headroom float64
	if ok {
		headroom = r.leases.Available(border)
	}
	r.borderMu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("shard: regions %d and %d share no border link for app %q: %w",
			a, b, app.Name, core.ErrRejected)
	}
	plan, err := planCross(app, r.part, a, b, border)
	if err != nil {
		return nil, nil, err
	}
	if app.QoS.Class == core.BestEffort {
		// A guaranteed-rate app may lease everything its reservation can
		// carry — that is what a bottleneck-rate reservation means. A
		// best-effort app must share: cap it at a slice of the remaining
		// headroom so successive BE apps split the border geometrically
		// instead of the first arrival starving the rest. The reservation
		// its halves make inside each region shrinks with the same factor,
		// which keeps intra-region paths from zeroing out under sustained
		// BE churn. This is a static stand-in for the eq. (4)
		// proportional-fair share, which cannot span two independent
		// per-region solvers.
		headroom /= beShareDiv
	}
	r0 := headroom / plan.bits
	if r0 <= 0 {
		return nil, nil, fmt.Errorf("shard: border link %q has no lease headroom for app %q: %w",
			r.part.Parent.Link(r.part.Border[border].Link).Name, app.Name, core.ErrRejected)
	}

	submitHalf := func(s *slot, half core.App, cap float64) (*core.PlacedApp, error) {
		half.QoS.RateCap = cap
		return s.sched.Submit(half)
	}
	paA, err := submitHalf(sa, plan.halfA, r0)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: app %q region %d half: %w", app.Name, a, err)
	}
	// A rollback's record joins the envelope; a remove that fails to
	// re-solve leaves the state its record describes.
	rollbackA := func() { _ = sa.sched.Remove(plan.halfA.Name) }
	rateA := paA.TotalRate()
	paB, err := submitHalf(sb, plan.halfB, rateA)
	if err != nil {
		rollbackA()
		return nil, nil, fmt.Errorf("shard: app %q region %d half: %w", app.Name, b, err)
	}
	rollbackB := func() { _ = sb.sched.Remove(plan.halfB.Name) }
	rate := paB.TotalRate()
	if rate < rateA*(1-rateTol) {
		// Side B is the bottleneck: trim side A's reservation down to
		// rate so the lease (and the end-to-end claim) is exact. The
		// resubmission sees at least the capacity the removed half had,
		// so with the cap binding it reserves exactly rate.
		rollbackA()
		paA, err = submitHalf(sa, plan.halfA, rate)
		if err != nil {
			rollbackB()
			return nil, nil, fmt.Errorf("shard: app %q region %d trim: %w", app.Name, a, err)
		}
		rateA = paA.TotalRate()
		if rateA < rate*(1-rateTol) {
			rollbackA()
			rollbackB()
			return nil, nil, fmt.Errorf("shard: app %q rate trim did not converge (%v vs %v): %w",
				app.Name, rateA, rate, core.ErrRejected)
		}
	}

	avail := paA.Availability * paB.Availability * (1 - plan.linkFailProb)
	if plan.target > 0 && avail < plan.target {
		rollbackA()
		rollbackB()
		return nil, nil, fmt.Errorf("shard: app %q end-to-end availability %.4f < requested %.4f (a=%.4f, b=%.4f, border %q): %w",
			app.Name, avail, plan.target, paA.Availability, paB.Availability,
			r.part.Parent.Link(r.part.Border[border].Link).Name, core.ErrRejected)
	}

	rate = min(paB.TotalRate(), rateA)
	r.borderMu.Lock()
	_, err = r.leases.Acquire(app.Name, border, plan.bits, rate)
	r.borderMu.Unlock()
	if err != nil {
		rollbackA()
		rollbackB()
		return nil, nil, fmt.Errorf("shard: app %q: %w: %v", app.Name, core.ErrRejected, err)
	}
	cross := &LeaseRecord{
		App:          app.Name,
		Class:        app.QoS.Class,
		A:            a,
		B:            b,
		Border:       border,
		Bits:         plan.bits,
		Rate:         rate,
		Avail:        avail,
		Target:       plan.target,
		LinkFailProb: plan.linkFailProb,
	}
	return &Result{
		Shard: a,
		App: &core.PlacedApp{
			App:          app,
			Availability: avail,
		},
		Cross: &CrossInfo{
			A:            a,
			B:            b,
			HalfA:        detach(paA),
			HalfB:        detach(paB),
			Border:       border,
			BorderLink:   r.part.Parent.Link(r.part.Border[border].Link).Name,
			Bits:         plan.bits,
			Rate:         rate,
			Availability: avail,
		},
	}, cross, nil
}

// SubmitBatch admits a batch. It is split by shard: each shard's
// intra-region members run as that shard's atomic sub-batch (one solve,
// one record), and cross-region members are admitted individually;
// atomicity is per shard, not global.
func (r *Router) SubmitBatch(apps []core.App, sp *obs.Span) ([]core.BatchResult, error) {
	results := make([]core.BatchResult, len(apps))
	// Each shard's claimed, localized members and their indices in apps.
	subs, idx := make([][]core.App, len(r.slots)), make([][]int, len(r.slots))
	for i, app := range apps {
		results[i].Name = app.Name
		regions, err := r.route(app)
		switch {
		case err != nil:
		case len(regions) == 2:
			var res *Result
			if res, err = r.submitCross(app, regions[0], regions[1], sp); err == nil {
				results[i].App = res.App
			}
		default:
			var local core.App
			if local, err = r.claimIn(app, regions[0]); err == nil {
				subs[regions[0]] = append(subs[regions[0]], local)
				idx[regions[0]] = append(idx[regions[0]], i)
			}
		}
		results[i].Err = err
	}
	var firstErr error
	for shard, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		// The shard's sub-batch enters its committer as one entry, so it
		// stays atomic while merging with concurrent single submits.
		res, err := r.slots[shard].group.SubmitMany(sub, sp)
		firstErr = cmp.Or(firstErr, err)
		for j, i := range idx[shard] {
			results[i] = res[j]
			r.countAdmission(apps[i].QoS.Class, res[j].Err)
			if res[j].Err != nil {
				r.unclaim(apps[i].Name)
			} else {
				r.settle(apps[i].Name, &appEntry{shard: shard})
			}
		}
	}
	return results, firstErr
}

// Remove withdraws a logical application: intra-region apps release in
// their shard; cross-region apps release both halves and return the
// lease to the border link (the sharded analogue of a GR release).
func (r *Router) Remove(name string, sp *obs.Span) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	if e.cross == nil {
		s := r.slots[e.shard]
		s.lock(sp)
		err := s.sched.Remove(name)
		s.unlock()
		if errors.Is(err, core.ErrNotFound) {
			return err
		}
		r.unclaim(name)
		return err
	}
	return r.removeCross(name, e.cross, sp)
}

func (r *Router) removeCross(name string, c *LeaseRecord, sp *obs.Span) error {
	sa, sb := r.slots[c.A], r.slots[c.B]
	return r.atomically(sp, []*slot{sa, sb}, func(env *Envelope) error {
		errA := sa.sched.Remove(halfName(name, c.A))
		errB := sb.sched.Remove(halfName(name, c.B))
		env.Lease = c.with(leaseRelease)
		r.unclaim(name)
		return cmp.Or(errA, errB, r.releaseLease(name))
	})
}

// releaseLease returns a cross-region app's lease to its border link.
func (r *Router) releaseLease(name string) error {
	r.borderMu.Lock()
	defer r.borderMu.Unlock()
	_, err := r.leases.Release(name)
	return err
}

// Repair re-places an application after element failures. Intra-region
// repair is the shard scheduler's Repair. Cross-region repair releases
// the lease, repairs both halves, re-trims their rates to agree, and
// leases the new rate; if any step fails the app is fully withdrawn
// (unlike an intra repair, which restores the old placement — the old
// two-shard placement cannot be restored atomically once one side moved).
func (r *Router) Repair(name string, sp *obs.Span) (*Result, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	var res *Result
	if e.cross == nil {
		var pa *core.PlacedApp
		if pa, err = r.slots[e.shard].repair(name, sp); err == nil {
			res = &Result{Shard: e.shard, App: pa}
		}
	} else {
		res, err = r.repairCross(name, e, sp)
	}
	outcome := "repaired"
	if err != nil {
		res, outcome = nil, "failed"
	}
	r.metrics.Counter(metricRepairs, obs.L("outcome", outcome)).Inc()
	return res, err
}

func (r *Router) repairCross(name string, e *appEntry, sp *obs.Span) (*Result, error) {
	c := e.cross
	sa, sb := r.slots[c.A], r.slots[c.B]
	var res *Result
	err := r.atomically(sp, []*slot{sa, sb}, func(env *Envelope) error {
		var err error
		if res, err = r.renewCross(c, sa, sb); err == nil {
			env.Lease = c.with(leaseRenew)
			return nil
		}
		// Full withdrawal: remove whatever halves remain and the lease,
		// which renewCross may already have released.
		_ = sa.sched.Remove(halfName(name, c.A))
		_ = sb.sched.Remove(halfName(name, c.B))
		_ = r.releaseLease(name)
		env.Lease = c.with(leaseRelease)
		r.unclaim(name)
		return fmt.Errorf("shard: cross-region repair of %q failed, app withdrawn: %w", name, err)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// renewCross repairs both halves of c, trims them to one rate the border
// link's current headroom carries, and re-leases that rate. The caller
// holds both shards and withdraws the app on error.
func (r *Router) renewCross(c *LeaseRecord, sa, sb *slot) (*Result, error) {
	name := c.App
	paA, err := sa.sched.Repair(halfName(name, c.A))
	if err != nil {
		return nil, err
	}
	paB, err := sb.sched.Repair(halfName(name, c.B))
	if err != nil {
		return nil, err
	}
	rateA, rateB := paA.TotalRate(), paB.TotalRate()
	rate := min(rateA, rateB)
	// The border link's capacity may have changed (fluctuation) since the
	// lease was granted: renegotiate against its *current* headroom —
	// capacity minus the OTHER apps' leases, since this app's own lease is
	// released before the new one is acquired. (Not Available()+own: that
	// clamps at zero and would overstate headroom once capacity falls
	// below the old lease.) BE apps keep their geometric share.
	r.borderMu.Lock()
	headroom := r.leases.Capacity(c.Border) - (r.leases.Leased(c.Border) - c.Bits*c.Rate)
	r.borderMu.Unlock()
	if c.Class == core.BestEffort {
		headroom /= beShareDiv
	}
	if headroom <= 0 {
		return nil, fmt.Errorf("shard: border link %q has no lease headroom: %w",
			r.part.Parent.Link(r.part.Border[c.Border].Link).Name, core.ErrRejected)
	}
	rate = min(rate, headroom/c.Bits)
	trim := func(s *slot, pa *core.PlacedApp) (*core.PlacedApp, error) {
		app := pa.App
		app.QoS.RateCap = rate
		if err := s.sched.Remove(pa.App.Name); err != nil {
			return nil, err
		}
		return s.sched.Submit(app)
	}
	if rateA > rate*(1+rateTol) {
		if paA, err = trim(sa, paA); err != nil {
			return nil, err
		}
	}
	if rateB > rate*(1+rateTol) {
		if paB, err = trim(sb, paB); err != nil {
			return nil, err
		}
	}
	avail := paA.Availability * paB.Availability * (1 - c.LinkFailProb)
	if c.Target > 0 && avail < c.Target {
		return nil, fmt.Errorf("shard: repaired availability %.4f < requested %.4f: %w",
			avail, c.Target, core.ErrRejected)
	}
	r.borderMu.Lock()
	_, lerr := r.leases.Release(name)
	if lerr == nil {
		_, lerr = r.leases.Acquire(name, c.Border, c.Bits, rate)
	}
	r.borderMu.Unlock()
	if lerr != nil {
		return nil, lerr
	}
	c.Rate = rate
	c.Avail = avail
	return &Result{
		Shard: c.A,
		App: &core.PlacedApp{
			App:          core.App{Name: name, QoS: core.QoS{Class: c.Class}},
			Availability: avail,
		},
		Cross: &CrossInfo{
			A: c.A, B: c.B, HalfA: detach(paA), HalfB: detach(paB),
			Border:       c.Border,
			BorderLink:   r.part.Parent.Link(r.part.Border[c.Border].Link).Name,
			Bits:         c.Bits,
			Rate:         rate,
			Availability: avail,
		},
	}, nil
}

// ApplyFluctuation applies a global capacity fluctuation: the scale map
// (keyed by parent-network elements) is split per region and into
// border-link scales; each shard re-evaluates its own population, and
// the lease table reports cross-region apps whose leases no longer fit.
// Like core.ApplyFluctuation, the scale REPLACES the previous one —
// elements absent from the map return to nominal capacity. The whole
// map is validated, by core's rule, before any shard or the border
// table sees a share of it.
func (r *Router) ApplyFluctuation(scale core.ElementScale, sp *obs.Span) (*core.FluctuationReport, error) {
	parent := r.part.Parent
	if err := scale.Validate(parent); err != nil {
		return nil, err
	}
	nNCP := parent.NumNCPs()
	// Split the parent-element scale into per-region local scales and
	// border scales.
	borderIdx := map[network.LinkID]int{}
	for i, bl := range r.part.Border {
		borderIdx[bl.Link] = i
	}
	sub := make([]core.ElementScale, len(r.slots))
	border := map[int]float64{}
	for e, f := range scale {
		if int(e) < nNCP {
			v := network.NCPID(e)
			reg := r.part.RegionOf(v)
			view := r.part.Regions[reg].View
			local, _ := view.LocalNCP(v)
			if sub[reg] == nil {
				sub[reg] = core.ElementScale{}
			}
			sub[reg][placement.NCPElement(local)] = f
			continue
		}
		l := network.LinkID(int(e) - nNCP)
		if bi, ok := borderIdx[l]; ok {
			border[bi] = f
			continue
		}
		reg := r.part.RegionOf(parent.Link(l).A)
		view := r.part.Regions[reg].View
		local, ok := view.LocalLink(l)
		if !ok {
			return nil, fmt.Errorf("shard: link %d belongs to no region", l)
		}
		if sub[reg] == nil {
			sub[reg] = core.ElementScale{}
		}
		sub[reg][placement.LinkElement(view.Net, local)] = f
	}

	report := &core.FluctuationReport{BERates: map[string]float64{}}
	var violated []string
	err := r.atomically(sp, r.slots, func(env *Envelope) error {
		var firstErr error
		for i, s := range r.slots {
			rep, err := s.sched.ApplyFluctuation(sub[i])
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if rep == nil {
				continue
			}
			for _, v := range rep.ViolatedGR {
				report.ViolatedGR = append(report.ViolatedGR, r.logicalName(v))
			}
			for n, rate := range rep.BERates {
				report.BERates[n] = rate
			}
		}
		r.borderMu.Lock()
		r.applyScaleLocked(border)
		violated = r.leases.Violated()
		r.borderMu.Unlock()
		// A deployment without border links has no border state to journal.
		if len(r.part.Border) > 0 {
			env.BorderScale, env.IsBorderScale = border, true
		}
		return firstErr
	})
	r.metrics.Counter(metricFluctuations).Inc()
	report.ViolatedGR = append(report.ViolatedGR, violated...)
	slices.Sort(report.ViolatedGR)
	report.ViolatedGR = slices.Compact(report.ViolatedGR)
	return report, err
}

// logicalName maps a shard-local app name back to its logical name
// (halves lose their region suffix).
func (r *Router) logicalName(name string) string {
	logical, _, ok := logicalOfHalf(name)
	if !ok {
		return name
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if e, ok := r.apps[logical]; ok && e.cross != nil {
		return logical
	}
	return name
}

// AppsByShard returns each shard's admitted apps (GR then BE, admission
// order), locking one shard at a time and detaching each placement while
// its lock is held: the caller renders them after a later re-solve may
// already be writing the residents' rates.
func (r *Router) AppsByShard(sp *obs.Span) [][]*core.PlacedApp {
	out := make([][]*core.PlacedApp, len(r.slots))
	for i, s := range r.slots {
		s.lock(sp)
		out[i] = append(s.sched.GRApps(), s.sched.BEApps()...)
		for j, pa := range out[i] {
			out[i][j] = detach(pa)
		}
		s.unlock()
	}
	return out
}

// Region returns region i's partition cell.
func (r *Router) Region(i int) *Region { return r.part.Regions[i] }

// ShardOf returns the shard owning the logical application name (for
// cross-region apps, the lower region). The second result is false when
// the name is unknown or its admission has not settled.
func (r *Router) ShardOf(name string) (int, bool) {
	e, err := r.lookup(name)
	if err != nil {
		return 0, false
	}
	return e.shard, true
}

// Stats is a point-in-time health view of the sharded control plane.
type Stats struct {
	Shards []ShardStats  `json:"shards"`
	Leases int           `json:"leases"`
	Border []BorderStats `json:"border,omitempty"`
}

// ShardStats is one region's population.
type ShardStats struct {
	Region   int `json:"region"`
	NCPs     int `json:"ncps"`
	Links    int `json:"links"`
	GRApps   int `json:"grApps"`
	BEApps   int `json:"beApps"`
	Admitted int `json:"admitted"`
	// SolverFlows/SolverNNZ expose the warm BE solver size (the
	// per-shard alloc rows).
	SolverFlows int `json:"solverFlows"`
	SolverNNZ   int `json:"solverNNZ"`
}

// BorderStats is one border link's lease occupancy.
type BorderStats struct {
	Link        string  `json:"link"`
	A           int     `json:"a"`
	B           int     `json:"b"`
	Capacity    float64 `json:"capacity"`
	Leased      float64 `json:"leased"`
	Utilization float64 `json:"utilization"`
}

// Stats gathers per-shard and border statistics, locking one shard at a
// time.
func (r *Router) Stats() Stats {
	st := Stats{}
	for i, s := range r.slots {
		s.mu.Lock()
		gr, be := s.sched.NumApps()
		flows, nnz := s.sched.SolverRows()
		s.mu.Unlock()
		st.Shards = append(st.Shards, ShardStats{
			Region:      i,
			NCPs:        s.region.View.Net.NumNCPs(),
			Links:       s.region.View.Net.NumLinks(),
			GRApps:      gr,
			BEApps:      be,
			Admitted:    gr + be,
			SolverFlows: flows,
			SolverNNZ:   nnz,
		})
	}
	r.borderMu.Lock()
	st.Leases = r.leases.Count()
	for i, bl := range r.part.Border {
		st.Border = append(st.Border, BorderStats{
			Link:        r.part.Parent.Link(bl.Link).Name,
			A:           bl.A,
			B:           bl.B,
			Capacity:    r.leases.Capacity(i),
			Leased:      r.leases.Leased(i),
			Utilization: r.leases.Utilization(i),
		})
	}
	r.borderMu.Unlock()
	return st
}
