package chaos

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"

	"sparcle/internal/core"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
)

// Policy bounds the self-healing remediation loop.
type Policy struct {
	// MaxAttempts is the number of Repair attempts per violation episode
	// before the application is parked in the degraded state (default 3).
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt of an episode,
	// in trace seconds (default 1). Attempt k waits
	// BaseBackoff * 2^(k-1), capped at MaxBackoff.
	BaseBackoff float64
	// MaxBackoff caps the exponential backoff (default 60).
	MaxBackoff float64
	// Jitter spreads each backoff by a uniform factor in
	// [1-Jitter, 1+Jitter), decorrelating repair retries that would
	// otherwise synchronize after a correlated failure (default 0.1).
	Jitter float64
	// StormBudget is the maximum number of Repair calls the driver issues
	// at a single timeline instant; excess repairs are deferred by one
	// BaseBackoff so a mass failure cannot trigger a repair storm
	// (default 8).
	StormBudget int
	// Seed drives the jitter randomness (default 1).
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 1
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 60
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0.1
	}
	if p.StormBudget <= 0 {
		p.StormBudget = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Backoff returns the jittered delay scheduled after failed attempt
// number attempt (1-based).
func (p Policy) Backoff(attempt int, rng *rand.Rand) float64 {
	d := p.BaseBackoff * math.Pow(2, float64(attempt-1))
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	return d
}

// MinDelay is the smallest delay Backoff can produce after the given
// failed attempt — the hot-loop floor the tests pin.
func (p Policy) MinDelay(attempt int) float64 {
	d := p.BaseBackoff * math.Pow(2, float64(attempt-1))
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d * (1 - p.Jitter)
}

// AttemptRecord is one entry of the driver's repair log.
type AttemptRecord struct {
	App     string
	At      float64 // trace time of the Repair call
	Attempt int     // 1-based within the episode
	Outcome string  // "repaired", "failed", "gave-up" or "healed"
	// Backoff is the delay scheduled after a failed attempt (0 when the
	// episode ended here).
	Backoff float64
}

// AppOutcome is the per-application verdict of a chaos run.
type AppOutcome struct {
	Name  string
	Class string
	// MinRate is the guaranteed rate (GR apps; 0 for BE).
	MinRate float64
	// AnalyticalBound is the availability the scheduler computed at
	// admission: min-rate availability for GR apps, at-least-one-path
	// availability for BE apps.
	AnalyticalBound float64
	// Delivered is the measured availability over the trace: the fraction
	// of the horizon the app met its guarantee (GR: working paths jointly
	// sustained MinRate; BE: at least one path working).
	Delivered float64
	// DegradedSeconds is the total time spent in the tracked degraded
	// state (all repair attempts of an episode exhausted, waiting for the
	// next recovery event).
	DegradedSeconds float64
	// Repairs / RepairFailures / GiveUps count this app's remediation
	// activity.
	Repairs, RepairFailures, GiveUps int
}

// Result summarizes a chaos run.
type Result struct {
	Horizon float64
	// Injections and Recoveries count element down/up transitions.
	Injections, Recoveries int
	// Fluctuations counts the ApplyFluctuation calls issued.
	Fluctuations int
	// RepairAttempts / RepairSuccesses / RepairFailures count Repair
	// calls; BackoffRetries counts attempts that were scheduled behind a
	// backoff delay (attempt >= 2); Healed counts pending repairs
	// canceled because a recovery restored the guarantee first.
	RepairAttempts, RepairSuccesses, RepairFailures int
	BackoffRetries, Healed                          int
	// GiveUps counts exhausted episodes; OperatorQueue names the apps
	// still degraded at the horizon — the explicit operator surface.
	GiveUps       int
	OperatorQueue []string
	// Apps holds the per-application outcomes, GR apps first, each class
	// sorted by name.
	Apps []AppOutcome
	// Attempts is the full repair log, in timeline order.
	Attempts []AttemptRecord
}

// Outcome returns the outcome for one app, or nil.
func (r *Result) Outcome(name string) *AppOutcome {
	for i := range r.Apps {
		if r.Apps[i].Name == name {
			return &r.Apps[i]
		}
	}
	return nil
}

// Option configures a Driver.
type Option func(*Driver)

// WithMetrics attaches a metrics registry; the driver then maintains
// injection/repair counters, the degraded-apps and degraded-time gauges,
// and per-app delivered-availability gauges. A nil registry records
// nothing and costs nothing.
func WithMetrics(reg *obs.Registry) Option {
	return func(d *Driver) { d.metrics = reg }
}

// WithLogger attaches a structured logger for chaos events.
func WithLogger(l *slog.Logger) Option {
	return func(d *Driver) {
		if l != nil {
			d.log = l
		}
	}
}

// Driver replays a failure trace against a scheduler and runs the
// self-healing loop. The timeline is virtual: trace events and backoff
// timers share one deterministic clock, so runs are exactly reproducible
// and the backoff discipline is testable without sleeping.
//
// When the scheduler has a span tracer (core.Scheduler.SetSpans), every
// step of the timeline is a root span on it — chaos.inject,
// chaos.recover, chaos.repair, chaos.give-up, chaos.requeue and
// chaos.heal, with the virtual time in an "at" attribute — and the
// scheduler operation a step runs (core.fluctuation, core.repair) nests
// under it.
type Driver struct {
	sched   *core.Scheduler
	policy  Policy
	metrics *obs.Registry
	log     *slog.Logger
	rng     *rand.Rand
}

// Metric names maintained by the driver.
const (
	metricInjections   = "sparcle_chaos_injections_total"
	metricRecoveries   = "sparcle_chaos_recoveries_total"
	metricRepairs      = "sparcle_chaos_repair_attempts_total"
	metricBackoffs     = "sparcle_chaos_backoff_retries_total"
	metricGiveUps      = "sparcle_chaos_giveups_total"
	metricDegradedApps = "sparcle_chaos_degraded_apps"
	metricDegradedTime = "sparcle_chaos_degraded_seconds_total"
	metricDelivered    = "sparcle_chaos_delivered_availability"
)

// NewDriver returns a Driver remediating sched under policy.
func NewDriver(sched *core.Scheduler, policy Policy, opts ...Option) *Driver {
	d := &Driver{
		sched:  sched,
		policy: policy.withDefaults(),
		log:    obs.NopLogger(),
	}
	for _, opt := range opts {
		opt(d)
	}
	d.rng = rand.New(rand.NewSource(d.policy.Seed))
	if d.metrics != nil {
		d.metrics.SetHelp(metricInjections, "Total element failures injected from the chaos trace.")
		d.metrics.SetHelp(metricRecoveries, "Total element recoveries replayed from the chaos trace.")
		d.metrics.SetHelp(metricRepairs, "Total self-healing repair attempts by outcome.")
		d.metrics.SetHelp(metricBackoffs, "Total repair attempts issued behind an exponential-backoff delay.")
		d.metrics.SetHelp(metricGiveUps, "Total violation episodes abandoned after exhausting repair attempts.")
		d.metrics.SetHelp(metricDegradedApps, "Guaranteed-rate applications currently parked in the degraded state.")
		d.metrics.SetHelp(metricDegradedTime, "Cumulative seconds applications spent in the degraded state.")
		d.metrics.SetHelp(metricDelivered, "Measured availability delivered to each application over the last chaos run.")
	}
	return d
}

// appState tracks one application's remediation and availability timeline.
type appState struct {
	name    string
	class   core.Class
	minRate float64
	bound   float64
	pa      *core.PlacedApp
	// pathElems caches UsedElements per path of the current placement.
	pathElems [][]placement.Element

	// meets is whether the guarantee held over the interval being
	// integrated; metTime accumulates the time it held.
	meets   bool
	metTime float64

	// Episode state: pendingAt is the scheduled time of the next repair
	// attempt (NaN when none), attempts counts this episode's failures,
	// degraded marks an exhausted episode waiting for a recovery event.
	pendingAt     float64
	attempts      int
	degraded      bool
	degradedSince float64
	degradedTime  float64

	repairs, failures, giveUps int
}

func (st *appState) refreshPaths() {
	st.pathElems = st.pathElems[:0]
	for _, p := range st.pa.Paths {
		st.pathElems = append(st.pathElems, p.P.UsedElements())
	}
}

// deliveredRate is the aggregate rate of the paths with every element up.
func (st *appState) deliveredRate(down map[placement.Element]bool) float64 {
	rate := 0.0
	for i, elems := range st.pathElems {
		up := true
		for _, e := range elems {
			if down[e] {
				up = false
				break
			}
		}
		if up {
			rate += st.pa.Paths[i].Rate
		}
	}
	return rate
}

// meetsNow evaluates the guarantee under the current down set. The traces
// this package generates only ever scale elements to zero, so "all of a
// path's elements are up" is exactly "the path delivers its reserved
// rate".
func (st *appState) meetsNow(down map[placement.Element]bool) bool {
	if st.class == core.GuaranteedRate {
		return st.deliveredRate(down) >= st.minRate-1e-12
	}
	// Best-effort: at least one working path.
	for _, elems := range st.pathElems {
		up := true
		for _, e := range elems {
			if down[e] {
				up = false
				break
			}
		}
		if up {
			return true
		}
	}
	return false
}

// Run replays tr against the scheduler from t=0 to the horizon, healing
// violated Guaranteed-Rate guarantees as it goes, and returns the
// measured outcome. The scheduler is left under nominal capacities
// (ApplyFluctuation(nil)) when the run ends.
func (d *Driver) Run(tr *Trace) (*Result, error) {
	if tr == nil || tr.Horizon <= 0 {
		return nil, fmt.Errorf("chaos: nil or empty trace")
	}
	res := &Result{Horizon: tr.Horizon}
	var states []*appState
	byName := map[string]*appState{}
	for _, pa := range d.sched.GRApps() {
		st := &appState{
			name: pa.App.Name, class: core.GuaranteedRate,
			minRate: pa.App.QoS.MinRate, bound: pa.Availability,
			pa: pa, pendingAt: math.NaN(), degradedSince: math.NaN(),
		}
		st.refreshPaths()
		states = append(states, st)
		byName[st.name] = st
	}
	for _, pa := range d.sched.BEApps() {
		st := &appState{
			name: pa.App.Name, class: core.BestEffort,
			bound: pa.Availability,
			pa:    pa, pendingAt: math.NaN(), degradedSince: math.NaN(),
		}
		st.refreshPaths()
		states = append(states, st)
		byName[st.name] = st
	}

	down := map[placement.Element]bool{}
	for _, st := range states {
		st.meets = st.meetsNow(down)
	}

	events := tr.Events()
	nextEvent := 0
	lastT := 0.0

	// integrate closes the availability and degraded-time integrals over
	// [lastT, t) using the state that held during the interval.
	integrate := func(t float64) {
		dt := t - lastT
		if dt <= 0 {
			return
		}
		for _, st := range states {
			if st.meets {
				st.metTime += dt
			}
			if st.degraded {
				st.degradedTime += dt
			}
		}
		lastT = t
	}

	// applyDown pushes the current down set into the scheduler and seeds
	// repair episodes for the violations it reports.
	applyDown := func(t float64) error {
		var scale core.ElementScale
		if len(down) > 0 {
			scale = make(core.ElementScale, len(down))
			for e := range down {
				scale[e] = 0
			}
		}
		rep, err := d.sched.ApplyFluctuation(scale)
		if err != nil {
			return fmt.Errorf("chaos: fluctuation at t=%.3f: %w", t, err)
		}
		res.Fluctuations++
		// Coalesce: every violation from this one event joins a single
		// repair pass at time t.
		for _, name := range rep.ViolatedGR {
			st := byName[name]
			if st == nil || st.degraded || !math.IsNaN(st.pendingAt) {
				continue
			}
			st.attempts = 0
			st.pendingAt = t
		}
		return nil
	}

	markDegraded := func(st *appState, t float64) {
		st.degraded = true
		st.degradedSince = t
		st.pendingAt = math.NaN()
		res.GiveUps++
		st.giveUps++
		if d.metrics != nil {
			d.metrics.Counter(metricGiveUps).Inc()
			d.metrics.Gauge(metricDegradedApps).Add(1)
		}
		if sp := d.span("chaos.give-up", t, st.name); sp != nil {
			sp.SetInt("attempt", int64(st.attempts))
			sp.SetAttr("reason", fmt.Sprintf("exhausted %d repair attempts", d.policy.MaxAttempts))
			sp.End()
		}
		d.log.Warn("chaos: repair given up, app degraded", "app", st.name, "t", t, "attempts", st.attempts)
	}

	clearDegraded := func(st *appState, t float64) {
		if !st.degraded {
			return
		}
		st.degraded = false
		st.degradedSince = math.NaN()
		if d.metrics != nil {
			d.metrics.Gauge(metricDegradedApps).Add(-1)
		}
	}

	// attemptRepair runs one Repair call at time t and schedules the
	// follow-up (backoff retry, give-up, or nothing on success).
	attemptRepair := func(st *appState, t float64) {
		st.pendingAt = math.NaN()
		// A recovery may have restored the guarantee while this attempt
		// waited out its backoff; repairing then would churn placements
		// for nothing.
		if st.meetsNow(down) {
			res.Healed++
			res.Attempts = append(res.Attempts, AttemptRecord{App: st.name, At: t, Attempt: st.attempts + 1, Outcome: "healed"})
			if d.metrics != nil {
				d.metrics.Counter(metricRepairs, obs.L("outcome", "healed")).Inc()
			}
			d.span("chaos.heal", t, st.name).End()
			st.attempts = 0
			clearDegraded(st, t)
			return
		}
		st.attempts++
		if st.attempts > 1 {
			res.BackoffRetries++
			if d.metrics != nil {
				d.metrics.Counter(metricBackoffs).Inc()
			}
		}
		res.RepairAttempts++
		sp := d.span("chaos.repair", t, st.name)
		sp.SetInt("attempt", int64(st.attempts))
		d.sched.SetRequestSpan(sp)
		pa, err := d.sched.Repair(st.name)
		d.sched.SetRequestSpan(nil)
		rec := AttemptRecord{App: st.name, At: t, Attempt: st.attempts}
		defer func() {
			sp.SetAttr("outcome", rec.Outcome)
			if sp != nil && err != nil {
				sp.SetFloat("backoff", rec.Backoff)
				sp.SetAttr("reason", err.Error())
			}
			sp.End()
		}()
		if err == nil {
			st.pa = pa
			st.refreshPaths()
			st.repairs++
			st.attempts = 0
			res.RepairSuccesses++
			rec.Outcome = "repaired"
			clearDegraded(st, t)
			if d.metrics != nil {
				d.metrics.Counter(metricRepairs, obs.L("outcome", "repaired")).Inc()
			}
		} else {
			st.failures++
			res.RepairFailures++
			if d.metrics != nil {
				d.metrics.Counter(metricRepairs, obs.L("outcome", "failed")).Inc()
			}
			if st.attempts >= d.policy.MaxAttempts {
				rec.Outcome = "gave-up"
				res.Attempts = append(res.Attempts, rec)
				markDegraded(st, t)
				return
			}
			rec.Outcome = "failed"
			rec.Backoff = d.policy.Backoff(st.attempts, d.rng)
			st.pendingAt = t + rec.Backoff
		}
		res.Attempts = append(res.Attempts, rec)
	}

	for {
		// Next instant: the earlier of the next trace event and the
		// earliest scheduled retry.
		t := math.Inf(1)
		if nextEvent < len(events) {
			t = events[nextEvent].At
		}
		for _, st := range states {
			if !math.IsNaN(st.pendingAt) && st.pendingAt < t {
				t = st.pendingAt
			}
		}
		if math.IsInf(t, 1) || t >= tr.Horizon {
			break
		}
		integrate(t)

		// Trace transitions first: the down set at time t includes
		// everything that changed at t.
		recovered := false
		if nextEvent < len(events) && events[nextEvent].At == t {
			ev := events[nextEvent]
			nextEvent++
			for _, e := range ev.Down {
				down[e] = true
			}
			for _, e := range ev.Up {
				delete(down, e)
			}
			res.Injections += len(ev.Down)
			res.Recoveries += len(ev.Up)
			recovered = len(ev.Up) > 0
			sp := d.recordTransitions(ev)
			d.sched.SetRequestSpan(sp)
			err := applyDown(t)
			d.sched.SetRequestSpan(nil)
			sp.End()
			if err != nil {
				return nil, err
			}
			// A recovery event grants every degraded app a fresh episode
			// instead of letting it hot-loop against a still-broken
			// network.
			if recovered {
				for _, st := range states {
					if st.degraded && math.IsNaN(st.pendingAt) {
						st.attempts = 0
						st.pendingAt = t
						d.span("chaos.requeue", t, st.name).End()
					}
				}
			}
		}

		// Repair pass at t, bounded by the storm budget; the overflow is
		// pushed one BaseBackoff out rather than dropped.
		budget := d.policy.StormBudget
		for _, st := range states {
			if math.IsNaN(st.pendingAt) || st.pendingAt > t {
				continue
			}
			if budget == 0 {
				st.pendingAt = t + d.policy.BaseBackoff
				continue
			}
			budget--
			attemptRepair(st, t)
		}

		for _, st := range states {
			st.meets = st.meetsNow(down)
		}
	}
	integrate(tr.Horizon)

	// Leave the scheduler on nominal capacities.
	if len(down) > 0 || res.Fluctuations > 0 {
		if _, err := d.sched.ApplyFluctuation(nil); err != nil {
			return nil, fmt.Errorf("chaos: restoring nominal capacities: %w", err)
		}
	}

	for _, st := range states {
		if st.degraded {
			res.OperatorQueue = append(res.OperatorQueue, st.name)
			if d.metrics != nil {
				d.metrics.Gauge(metricDegradedApps).Add(-1)
			}
		}
		out := AppOutcome{
			Name: st.name, Class: st.class.String(),
			MinRate:         st.minRate,
			AnalyticalBound: st.bound,
			Delivered:       st.metTime / tr.Horizon,
			DegradedSeconds: st.degradedTime,
			Repairs:         st.repairs, RepairFailures: st.failures, GiveUps: st.giveUps,
		}
		res.Apps = append(res.Apps, out)
		if d.metrics != nil {
			d.metrics.Counter(metricDegradedTime).Add(st.degradedTime)
			d.metrics.Gauge(metricDelivered, obs.L("app", st.name)).Set(out.Delivered)
		}
	}
	sort.Slice(res.Apps, func(i, j int) bool {
		if res.Apps[i].Class != res.Apps[j].Class {
			return res.Apps[i].Class == core.GuaranteedRate.String()
		}
		return res.Apps[i].Name < res.Apps[j].Name
	})
	sort.Strings(res.OperatorQueue)
	return res, nil
}

// recordTransitions emits the telemetry for one trace event and returns
// the span its fluctuation nests under: chaos.recover when elements come
// back, chaos.inject otherwise (an injection at the same instant as a
// recovery is a span of its own, ended here).
func (d *Driver) recordTransitions(ev Event) *obs.Span {
	if d.metrics != nil {
		if len(ev.Down) > 0 {
			d.metrics.Counter(metricInjections).Add(float64(len(ev.Down)))
		}
		if len(ev.Up) > 0 {
			d.metrics.Counter(metricRecoveries).Add(float64(len(ev.Up)))
		}
	}
	var sp *obs.Span
	if len(ev.Down) > 0 {
		sp = d.span("chaos.inject", ev.At, "")
		sp.SetInt("elements", int64(len(ev.Down)))
		d.log.Info("chaos: elements failed", "t", ev.At, "elements", len(ev.Down))
	}
	if len(ev.Up) > 0 {
		sp.End()
		sp = d.span("chaos.recover", ev.At, "")
		sp.SetInt("elements", int64(len(ev.Up)))
		d.log.Info("chaos: elements recovered", "t", ev.At, "elements", len(ev.Up))
	}
	return sp
}

// span opens the root span of one timeline step on the scheduler's span
// tracer, at virtual time t, for app (empty for element transitions). It
// returns nil when the scheduler is untraced.
func (d *Driver) span(name string, t float64, app string) *obs.Span {
	sp := d.sched.Spans().Start(name)
	sp.SetFloat("at", t)
	if app != "" {
		sp.SetAttr("app", app)
	}
	return sp
}
