// Package core implements the SPARCLE scheduling system of §IV (Fig. 3):
// it admits heterogeneous stream processing applications onto a dispersed
// computing network, running the dynamic-ranking task assignment for each,
// multiplying task-assignment paths until the requested availability is
// met, reserving resources for Guaranteed-Rate applications, predicting
// per-priority capacity shares for Best-Effort applications (eq. (6)), and
// solving the weighted proportional-fair allocation (problem (4)) across
// all admitted Best-Effort applications.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"time"

	"sparcle/internal/alloc"
	"sparcle/internal/assign"
	"sparcle/internal/avail"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// Class distinguishes the two QoE classes of §III.A.
type Class int

// The supported application classes.
const (
	BestEffort Class = iota + 1
	GuaranteedRate
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case BestEffort:
		return "best-effort"
	case GuaranteedRate:
		return "guaranteed-rate"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// QoS is an application's requested quality of experience.
type QoS struct {
	Class Class

	// Priority is the relative importance of a BestEffort application
	// (must be > 0 for BE apps).
	Priority float64
	// Availability is the requested probability that at least one task
	// assignment path works (BE apps; 0 means no requirement).
	Availability float64

	// MinRate is the guaranteed processing rate of a GuaranteedRate
	// application, in data units per second.
	MinRate float64
	// MinRateAvailability is the requested probability that the working
	// paths jointly sustain MinRate (GR apps).
	MinRateAvailability float64

	// RateCap caps the reserved per-path rate of a GuaranteedRate
	// application (0 = uncapped). Region-sharded deployments
	// (internal/shard) use it to fit a cross-region reservation inside
	// the border-link capacity lease negotiated between two shards.
	RateCap float64

	// MaxPaths bounds the task assignment paths tried for this
	// application; 0 uses the default, 4. Above avail.MaxPaths the
	// application is refused as malformed.
	MaxPaths int
}

// App is a stream processing application submitted to the scheduler.
type App struct {
	Name  string
	Graph *taskgraph.Graph
	// Pins maps every data-source and result-consumer CT (and optionally
	// others) to its fixed host.
	Pins placement.Pins
	QoS  QoS
}

// PlacedApp is an admitted application with its task assignment paths and
// current rates.
type PlacedApp struct {
	App App
	// Paths holds the task assignment paths. For GR apps Rate is the
	// reserved rate of each path; for BE apps it is the current
	// proportional-fair allocation.
	Paths []placement.Path
	// Availability is the achieved QoE probability: at-least-one-path for
	// BE apps, min-rate availability for GR apps.
	Availability float64

	// Derived state kept on the resident, so that no operation re-derives
	// it for the whole resident set: the bound allocated-rate series (nil
	// until first published) and the eq. (6) footprint (BE apps; built by
	// the first prediction that reads it — paths never change).
	rate      *obs.Gauge
	footprint alloc.Footprint
}

// TotalRate returns the application's aggregate processing rate across its
// paths.
func (pa *PlacedApp) TotalRate() float64 {
	total := 0.0
	for _, p := range pa.Paths {
		total += p.Rate
	}
	return total
}

// ErrRejected is wrapped by Submit when an application's QoE cannot be met
// and the application is therefore not placed.
var ErrRejected = errors.New("core: application rejected")

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithAlgorithm selects the task assignment algorithm (default SPARCLE's
// dynamic ranking). Experiments use this hook to drive the baselines
// through the identical admission pipeline.
func WithAlgorithm(alg placement.Algorithm) Option {
	return func(s *Scheduler) { s.alg = alg }
}

// WithRandSeed does nothing: the scheduler draws no random numbers, since
// its availability analyses are exact.
//
// Deprecated: the only remaining callers are in the repository benchmark
// (benchmark/probe.go, benchmark/trace.go, benchmark/check.go); the option
// goes when they stop passing it.
func WithRandSeed(seed int64) Option {
	return func(*Scheduler) {}
}

// WithMetrics attaches a metrics registry: the scheduler then maintains
// admission counters, placement and allocation latency histograms,
// repair counters and per-app allocated-rate gauges. The default (no
// registry) records nothing and costs nothing.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Scheduler) { s.metrics = reg }
}

// WithLogger attaches a structured logger for operational events
// (admissions, rejections, repairs, fluctuations). The default logger
// discards everything, keeping library use silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Scheduler) {
		if l != nil {
			s.log = l
		}
	}
}

// WithoutPrediction disables the eq. (6) capacity prediction: new BE
// applications are placed against the raw residual capacities instead of
// their priority share. This is the ablation mode for quantifying how much
// the prediction contributes to arrival-order independence; production use
// should keep prediction on.
func WithoutPrediction() Option {
	return func(s *Scheduler) { s.noPrediction = true }
}

// Scheduler is the SPARCLE system: it owns the network's capacity
// bookkeeping and the set of admitted applications. Everything it
// mutates lives in the embedded state (see state.go); *Scheduler
// implements Control, the interface along which schedulers compose.
type Scheduler struct {
	// state is the mutable scheduler state: placement view, BE capacity
	// pool, alloc solver rows, and the journal commit hook.
	state

	net *network.Network
	alg placement.Algorithm

	failProbs avail.FailProbs

	// Telemetry sinks; all default to no-ops (see internal/obs).
	metrics *obs.Registry
	log     *slog.Logger
	// spans, when set, emits hierarchical spans, decisions included, for
	// every operation (see spans.go). reqSpan is the server-installed parent
	// of the current request; opSpan is the span of the operation currently
	// executing, exposed to the journal commit hook via OpSpan.
	spans   *obs.SpanTracer
	reqSpan *obs.Span
	opSpan  *obs.Span
	// admitted holds the bound per-class resident-count gauges (GR, BE);
	// lineage owns the per-app rate series (see lineage()).
	admitted [2]*obs.Gauge
	lineage  string

	// noPrediction disables the eq. (6) capacity prediction (ablation).
	noPrediction bool

	// batching defers best-effort re-allocation during SubmitBatch so a
	// K-app batch reconciles the solver once.
	batching bool

	// Reused per-operation scratch (never part of durable state): the
	// eq. (6) footprint slice and prediction buffer of every BE
	// admission, and the liveness map plus new-flow slices the
	// incremental solver reconciliation rebuilds on every solve. Pooling
	// these takes the steady-churn allocation count down without changing
	// behaviour — all are fully overwritten before each use.
	fpScratch      []alloc.Footprint
	prediction     alloc.Prediction
	liveScratch    map[*PlacedApp]bool
	newAppsScratch []*PlacedApp
	newFlowScratch []alloc.Flow
}

// New returns a Scheduler over net.
func New(net *network.Network, opts ...Option) *Scheduler {
	s := &Scheduler{
		state: state{
			beAvailable: net.BaseCapacities(),
		},
		net: net,
		alg: assign.Sparcle{},
		log: obs.NopLogger(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.failProbs = failProbs(net)
	// Route telemetry into the assignment algorithm when it is SPARCLE's
	// own (baselines have no such hooks).
	if sp, ok := s.alg.(assign.Sparcle); ok {
		sp.Metrics = s.metrics
		s.alg = sp
	}
	if s.metrics != nil {
		assign.DescribeMetrics(s.metrics)
		s.metrics.SetHelp(metricAdmissions, "Total admission decisions by application class and outcome.")
		s.metrics.SetHelp(metricPlacementSeconds, "Latency of admission control (Submit), seconds.")
		s.metrics.SetHelp(metricRepairs, "Total repair attempts on guaranteed-rate applications by outcome.")
		s.metrics.SetHelp(metricAppRate, "Current total allocated rate per admitted application, data units per second.")
		s.metrics.SetHelp(metricAppsAdmitted, "Currently admitted applications by class.")
		s.metrics.SetHelp(metricAllocSolves, "Total best-effort rate-allocation solves by solver.")
		s.metrics.SetHelp(metricAllocSeconds, "Latency of best-effort rate-allocation solves, seconds.")
		s.metrics.SetHelp(metricWarmSolves, "Total best-effort rate-allocation solves warm-started from the previous dual prices.")
		s.metrics.SetHelp(metricAllocNNZ, "Constraint-matrix nonzeros of the most recent best-effort allocation solve.")
		s.metrics.SetHelp(metricAllocCycles, "Dual coordinate-descent cycles per best-effort allocation solve, by start mode.")
		s.metrics.SetHelp(metricAllocRowEvals, "Total constraint-row demand evaluations made by best-effort allocation solves.")
		s.metrics.SetHelp(metricFluctuations, "Total capacity fluctuations applied.")
		s.lineage = lineage(net)
		s.admitted[0] = s.metrics.Gauge(metricAppsAdmitted, obs.L("class", GuaranteedRate.String()))
		s.admitted[1] = s.metrics.Gauge(metricAppsAdmitted, obs.L("class", BestEffort.String()))
		s.publish()
	}
	return s
}

// Metric names maintained by the scheduler.
const (
	metricAdmissions       = "sparcle_admissions_total"
	metricPlacementSeconds = "sparcle_placement_seconds"
	metricRepairs          = "sparcle_repairs_total"
	metricAppRate          = "sparcle_app_allocated_rate"
	metricAppsAdmitted     = "sparcle_apps_admitted"
	metricAllocSolves      = "sparcle_alloc_solves_total"
	metricAllocSeconds     = "sparcle_alloc_solve_seconds"
	metricWarmSolves       = "sparcle_alloc_warm_solves_total"
	metricAllocNNZ         = "sparcle_alloc_rows_nnz"
	metricAllocCycles      = "sparcle_alloc_solve_cycles"
	metricAllocRowEvals    = "sparcle_alloc_row_evals_total"
	metricFluctuations     = "sparcle_fluctuations_total"
)

// allocCycleBuckets tiles the warm (1-3 cycles) through cold (tens to
// hundreds) convergence regimes of the dual descent.
var allocCycleBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 100, 200, 300}

// telemetryOn reports whether any sink beyond the no-op logger is
// attached; Submit takes the zero-overhead path when it is false.
func (s *Scheduler) telemetryOn() bool {
	return s.metrics != nil || s.log.Enabled(nil, slog.LevelWarn)
}

// publish writes the post-operation state to the per-app rate gauges and
// the per-class resident counts: one atomic store per resident, whatever
// the size of the resident set. An app's series is bound on its first
// publish and stays bound until release; a rejected or rolled-back
// admission leaves before any publish and never has one.
func (s *Scheduler) publish() {
	if s.metrics == nil {
		return
	}
	sp := s.opSpan.Child("core.publish")
	for _, list := range [2][]*PlacedApp{s.gr, s.be} {
		for _, pa := range list {
			if pa.rate == nil {
				pa.rate = s.metrics.OwnedGauge(s.lineage, metricAppRate, rateLabels(pa)...)
			}
			pa.rate.Set(pa.TotalRate())
		}
	}
	s.admitted[0].Set(float64(len(s.gr)))
	s.admitted[1].Set(float64(len(s.be)))
	sp.End()
}

// release deletes a withdrawn resident's rate series; names are unique
// among residents (the serving layers enforce it). A repaired app needs
// none: its replacement, or the restored original, carries the same name
// and class and re-binds the same series.
func (s *Scheduler) release(pa *PlacedApp) {
	if pa.rate != nil {
		s.metrics.DeleteSeries(metricAppRate, rateLabels(pa)...)
		pa.rate = nil
	}
}

func rateLabels(pa *PlacedApp) []obs.Label {
	return []obs.Label{obs.L("app", pa.App.Name), obs.L("class", pa.App.QoS.Class.String())}
}

// lineage names a scheduler's place on a registry across rebuilds, as the
// owner of its rate series: the network's name and first NCP. The region
// schedulers of a sharded deployment share one registry and one network
// name but partition the NCPs, so each region is its own lineage, and a
// rebuilt region retires only its predecessor's series.
func lineage(net *network.Network) string {
	return net.Name() + "/" + net.NCP(0).Name
}

// failProbs collects the fallible elements of the network.
func failProbs(net *network.Network) avail.FailProbs {
	fp := avail.FailProbs{}
	for v := 0; v < net.NumNCPs(); v++ {
		if p := net.NCP(network.NCPID(v)).FailProb; p > 0 {
			fp[int(placement.NCPElement(network.NCPID(v)))] = p
		}
	}
	for l := 0; l < net.NumLinks(); l++ {
		if p := net.Link(network.LinkID(l)).FailProb; p > 0 {
			fp[int(placement.LinkElement(net, network.LinkID(l)))] = p
		}
	}
	return fp
}

// GRApps returns the admitted Guaranteed-Rate applications.
func (s *Scheduler) GRApps() []*PlacedApp { return append([]*PlacedApp(nil), s.gr...) }

// BEApps returns the admitted Best-Effort applications.
func (s *Scheduler) BEApps() []*PlacedApp { return append([]*PlacedApp(nil), s.be...) }

// resident returns the admitted application (either class) carrying the
// name, or nil.
func (s *Scheduler) resident(name string) *PlacedApp {
	for _, list := range [2][]*PlacedApp{s.gr, s.be} {
		for _, pa := range list {
			if pa.App.Name == name {
				return pa
			}
		}
	}
	return nil
}

// BEAvailableCapacities returns a copy of the capacities available to the
// BE class (base minus GR reservations).
func (s *Scheduler) BEAvailableCapacities() *network.Capacities { return s.beAvailable.Clone() }

// Utility returns the problem-(4) objective over admitted BE apps:
// sum of Priority * log(total rate).
func (s *Scheduler) Utility() float64 {
	u := 0.0
	for _, pa := range s.be {
		u += pa.App.QoS.Priority * math.Log(pa.TotalRate())
	}
	return u
}

// TotalGRRate returns the sum of the reserved rates of admitted GR apps.
func (s *Scheduler) TotalGRRate() float64 {
	total := 0.0
	for _, pa := range s.gr {
		total += pa.TotalRate()
	}
	return total
}

// Submit runs admission control for one application (Fig. 3): task
// assignment, path multiplication until the requested availability is met,
// and resource allocation. It returns the placed application, or an error
// wrapping ErrRejected when the QoE cannot be met (the scheduler state is
// then unchanged).
//
// When a durability hook is installed, the decision — including
// rejections, which re-solve BE rates, so they are state-visible — is
// committed to the journal before Submit returns; a commit failure
// surfaces as ErrDurability alongside the placed app.
func (s *Scheduler) Submit(app App) (*PlacedApp, error) {
	sp := s.startOpSpan("core.submit")
	sp.SetAttr("app", app.Name)
	s.opSpan = sp
	defer func() { s.opSpan = nil; sp.End() }()
	pa, err := s.submitObserved(app)
	recordVerdict(sp, app, pa, err)
	rec := &Record{Op: OpAdmit, Outcome: submitOutcome(err), Name: app.Name}
	if err != nil {
		rec.Reason = err.Error()
	} else {
		st, exportErr := exportApp(pa)
		if exportErr != nil {
			return pa, fmt.Errorf("%w: %v", ErrDurability, exportErr)
		}
		rec.App = &st
	}
	if cerr := s.commitRecord(rec); cerr != nil {
		return pa, cerr
	}
	return pa, err
}

// submitObserved is Submit's admission pipeline plus telemetry, without
// the durability commit.
func (s *Scheduler) submitObserved(app App) (*PlacedApp, error) {
	if !s.telemetryOn() {
		return s.submit(app)
	}
	start := time.Now()
	pa, err := s.submit(app)
	elapsed := time.Since(start).Seconds()

	class := app.QoS.Class.String()
	outcome := submitOutcome(err)
	if s.metrics != nil {
		s.metrics.Counter(metricAdmissions, obs.L("class", class), obs.L("outcome", outcome)).Inc()
		s.metrics.Histogram(metricPlacementSeconds, nil, obs.L("class", class)).Observe(elapsed)
		s.publish()
	}
	if err != nil {
		s.log.Warn("admission refused", "app", app.Name, "class", class, "outcome", outcome, "err", err)
	} else {
		s.log.Info("application admitted", "app", app.Name, "class", class,
			"paths", len(pa.Paths), "rate", pa.TotalRate(), "availability", pa.Availability, "seconds", elapsed)
	}
	return pa, err
}

// recordVerdict sets the admission verdict of app on its operation span:
// class and outcome, then the reason of a refusal or the paths, rate and
// availability of an admission. Inside a batch a best-effort rate is the
// eq. (6) prediction it was placed at; the batch's one solve re-rates it.
func recordVerdict(sp *obs.Span, app App, pa *PlacedApp, err error) {
	if sp == nil {
		return
	}
	sp.SetAttr("class", app.QoS.Class.String())
	sp.SetAttr("outcome", submitOutcome(err))
	if err != nil {
		sp.SetAttr("reason", err.Error())
		return
	}
	sp.SetInt("paths", int64(len(pa.Paths)))
	sp.SetFloat("rate", pa.TotalRate())
	sp.SetFloat("availability", pa.Availability)
}

// submit is Submit without telemetry.
func (s *Scheduler) submit(app App) (*PlacedApp, error) {
	if app.Graph == nil {
		return nil, errors.New("core: app has no task graph")
	}
	if app.QoS.MaxPaths > avail.MaxPaths {
		return nil, fmt.Errorf("core: app %q QoS MaxPaths is %d, at most %d", app.Name, app.QoS.MaxPaths, avail.MaxPaths)
	}
	switch app.QoS.Class {
	case GuaranteedRate:
		return s.submitGR(app)
	case BestEffort:
		return s.submitBE(app)
	default:
		return nil, fmt.Errorf("core: app %q has unknown QoS class %v", app.Name, app.QoS.Class)
	}
}

// defaultMaxPaths bounds an application's task assignment paths when its
// QoS.MaxPaths is zero.
const defaultMaxPaths = 4

func (s *Scheduler) maxPaths(app App) int {
	if app.QoS.MaxPaths > 0 {
		return app.QoS.MaxPaths
	}
	return defaultMaxPaths
}

// submitGR implements the GR algorithm of §IV.D: add paths one at a time
// (each at the bottleneck rate the residual network supports), reserving
// their resources, until the min-rate availability target is reached.
func (s *Scheduler) submitGR(app App) (*PlacedApp, error) {
	if r := app.QoS.MinRate; !(r > 0) || math.IsInf(r, 1) {
		return nil, fmt.Errorf("core: GR app %q needs MinRate > 0", app.Name)
	}
	if math.IsNaN(app.QoS.MinRateAvailability) {
		return nil, fmt.Errorf("core: GR app %q has a NaN MinRateAvailability", app.Name)
	}
	residual := s.beAvailable.Clone()
	var paths []placement.Path
	maxPaths := s.maxPaths(app)
	achieved := 0.0
	for len(paths) < maxPaths {
		asp := s.opSpan.Child("assign.path")
		asp.SetInt("path", int64(len(paths)))
		p, err := s.spanAlg(asp).Assign(app.Graph, app.Pins, s.net, residual)
		asp.End()
		if err != nil {
			break
		}
		rate := p.Rate(residual)
		if rate <= 0 || math.IsInf(rate, 1) {
			break
		}
		if cap := app.QoS.RateCap; cap > 0 && rate > cap {
			rate = cap
		}
		p.Subtract(residual, rate)
		paths = append(paths, placement.Path{P: p, Rate: rate})

		avsp := s.opSpan.Child("avail.analyze")
		avsp.SetInt("paths", int64(len(paths)))
		a, err := avail.MinRate(availPaths(paths), s.failProbs, app.QoS.MinRate)
		avsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: GR app %q availability analysis: %w", app.Name, err)
		}
		achieved = a
		if achieved >= app.QoS.MinRateAvailability {
			pa := &PlacedApp{App: app, Paths: paths, Availability: achieved}
			prev := s.beAvailable
			s.gr = append(s.gr, pa)
			s.beAvailable = residual
			if s.batching {
				// SubmitBatch re-allocates once at the end; a starving
				// batch rolls back wholesale there.
				return pa, nil
			}
			// GR admission shrinks the BE capacity pool: re-allocate.
			if err := s.reallocateBE(); err != nil {
				// Roll back the reservation rather than leave BE apps
				// unallocated. The pre-admission pool object was never
				// mutated (the reservation went onto the residual clone),
				// so restoring the pointer is exact.
				s.gr = s.gr[:len(s.gr)-1]
				s.beAvailable = prev
				return nil, fmt.Errorf("core: GR app %q starves BE allocation: %w: %w", app.Name, ErrRejected, err)
			}
			return pa, nil
		}
	}
	return nil, fmt.Errorf("core: GR app %q: min-rate availability %.4f < requested %.4f with %d path(s): %w",
		app.Name, achieved, app.QoS.MinRateAvailability, len(paths), ErrRejected)
}

// submitBE implements the BE pipeline of Fig. 3 steps 1-5: predict this
// app's capacity share from priorities (eq. (6)), assign paths until the
// availability target holds, then re-solve problem (4) across all BE apps.
func (s *Scheduler) submitBE(app App) (*PlacedApp, error) {
	if w := app.QoS.Priority; !(w > 0) || math.IsInf(w, 1) {
		return nil, fmt.Errorf("core: BE app %q needs Priority > 0", app.Name)
	}
	if math.IsNaN(app.QoS.Availability) {
		return nil, fmt.Errorf("core: BE app %q has a NaN Availability", app.Name)
	}
	// predicted is s.prediction's buffer: it lives for this admission only,
	// and the paths below keep no reference to it.
	psp := s.opSpan.Child("alloc.predict")
	var predicted *network.Capacities
	if s.noPrediction {
		// Ablation mode: the newcomer sees whatever is left after the
		// incumbents' current allocations — the arrival-order-dependent
		// behaviour eq. (6) exists to avoid.
		predicted = s.prediction.Predict(s.beAvailable, nil, app.QoS.Priority)
		for _, pa := range s.be {
			for _, path := range pa.Paths {
				path.P.Subtract(predicted, path.Rate)
			}
		}
	} else {
		// The slice is scratch (Predict does not retain it); the
		// footprints themselves live on the residents.
		footprints := s.fpScratch[:0]
		for _, pa := range s.be {
			if pa.footprint.Priority == 0 {
				pa.footprint = alloc.FootprintOf(pa.App.QoS.Priority, pa.Paths)
			}
			footprints = append(footprints, pa.footprint)
		}
		predicted = s.prediction.Predict(s.beAvailable, footprints, app.QoS.Priority)
		s.fpScratch = footprints[:0]
	}
	psp.End()

	var paths []placement.Path
	maxPaths := s.maxPaths(app)
	achieved := 0.0
	for len(paths) < maxPaths {
		asp := s.opSpan.Child("assign.path")
		asp.SetInt("path", int64(len(paths)))
		p, err := s.spanAlg(asp).Assign(app.Graph, app.Pins, s.net, predicted)
		asp.End()
		if err != nil {
			break
		}
		rate := p.Rate(predicted)
		if rate <= 0 || math.IsInf(rate, 1) {
			break
		}
		p.Subtract(predicted, rate)
		paths = append(paths, placement.Path{P: p, Rate: rate})

		avsp := s.opSpan.Child("avail.analyze")
		avsp.SetInt("paths", int64(len(paths)))
		a, err := avail.AtLeastOne(availPaths(paths), s.failProbs)
		avsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: BE app %q availability analysis: %w", app.Name, err)
		}
		achieved = a
		if achieved >= app.QoS.Availability {
			break
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: BE app %q: no feasible task assignment path: %w", app.Name, ErrRejected)
	}
	if achieved < app.QoS.Availability {
		return nil, fmt.Errorf("core: BE app %q: availability %.4f < requested %.4f with %d path(s): %w",
			app.Name, achieved, app.QoS.Availability, len(paths), ErrRejected)
	}

	pa := &PlacedApp{App: app, Paths: paths, Availability: achieved}
	s.be = append(s.be, pa)
	if s.batching {
		// SubmitBatch solves once at the end; its zero-rate check runs
		// there, after the rates exist.
		return pa, nil
	}
	if err := s.reallocateBE(); err != nil || pa.TotalRate() <= 0 {
		s.be = s.be[:len(s.be)-1]
		if reallocErr := s.reallocateBE(); reallocErr != nil {
			return nil, fmt.Errorf("core: BE rollback failed: %w", reallocErr)
		}
		if err == nil {
			err = errors.New("allocated rate is zero")
		}
		return nil, fmt.Errorf("core: BE app %q: %w: %w", app.Name, ErrRejected, err)
	}
	return pa, nil
}

// reallocateBE re-solves problem (4) for all admitted BE applications and
// writes the resulting rates back onto their paths. Each path is a flow
// weighted by Priority/len(paths), so an application's aggregate weight is
// its priority regardless of how many availability paths it holds.
//
// The default path is incremental: the scheduler-owned alloc.Solver keeps
// the sparse constraint rows and dual prices of the previous solve, the
// admitted-app set is reconciled against it by delta, and the descent
// warm-starts from the previous prices. An incremental-solve failure
// falls back to the cold path, which rebuilds everything from scratch.
func (s *Scheduler) reallocateBE() error {
	if len(s.be) == 0 {
		// Keep the solver honest when the last BE app departs, so a later
		// admission does not resurrect stale flows.
		if s.beSolver != nil {
			for pa, ids := range s.beFlowIDs {
				s.beSolver.RemoveFlows(ids)
				delete(s.beFlowIDs, pa)
			}
		}
		return nil
	}
	const solver = "proportional-fair"
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	ssp := s.opSpan.Child("alloc.solve")
	stats, err := s.incrementalSolve()
	if err != nil {
		// The incremental state may be unusable (e.g. a divergence from
		// pathological prices); discard it and retry cold before giving up.
		s.dropSolver()
		stats, err = s.coldSolve()
	}
	ssp.SetAttr("solver", solver)
	if stats.Warm {
		ssp.SetAttr("mode", "warm")
	} else {
		ssp.SetAttr("mode", "cold")
	}
	ssp.SetInt("flows", int64(stats.Flows))
	ssp.SetInt("rows", int64(stats.Rows))
	ssp.SetInt("nnz", int64(stats.NNZ))
	ssp.SetInt("cycles", int64(stats.Cycles))
	ssp.SetInt("rowEvals", int64(stats.RowEvals))
	if ssp != nil {
		ssp.SetAny("converged", stats.Converged)
	}
	ssp.End()
	if s.metrics != nil {
		s.metrics.Counter(metricAllocSolves, obs.L("solver", solver)).Inc()
		s.metrics.Histogram(metricAllocSeconds, nil).Observe(time.Since(start).Seconds())
		mode := "cold"
		if stats.Warm {
			mode = "warm"
			s.metrics.Counter(metricWarmSolves).Inc()
		}
		s.metrics.Gauge(metricAllocNNZ).Set(float64(stats.NNZ))
		s.metrics.Histogram(metricAllocCycles, allocCycleBuckets, obs.L("mode", mode)).Observe(float64(stats.Cycles))
		s.metrics.Counter(metricAllocRowEvals).Add(float64(stats.RowEvals))
	}
	if err != nil {
		return fmt.Errorf("core: best-effort rate allocation: %w", err)
	}
	return nil
}

// beFlows flattens the admitted BE apps into allocation flows plus the
// paths owning each flow's resulting rate.
func (s *Scheduler) beFlows() ([]alloc.Flow, []*placement.Path) {
	var flows []alloc.Flow
	var owners []*placement.Path
	for _, pa := range s.be {
		w := pa.App.QoS.Priority / float64(len(pa.Paths))
		for i := range pa.Paths {
			flows = append(flows, alloc.Flow{Weight: w, Path: pa.Paths[i].P})
			owners = append(owners, &pa.Paths[i])
		}
	}
	return flows, owners
}

// coldSolve runs a from-scratch proportional-fair solve and writes the
// rates back. Path rates are only updated on success.
func (s *Scheduler) coldSolve() (alloc.Stats, error) {
	flows, owners := s.beFlows()
	x, stats, err := alloc.SolveStats(s.beAvailable, flows, alloc.Options{})
	if err != nil {
		return stats, err
	}
	for i := range x {
		owners[i].Rate = x[i]
	}
	return stats, nil
}

// incrementalSolve reconciles the scheduler-owned Solver against the
// admitted-app set, warm-starts the dual descent, and writes the rates
// back.
func (s *Scheduler) incrementalSolve() (alloc.Stats, error) {
	if s.beSolver == nil {
		s.beSolver = alloc.NewSolver(s.beAvailable, alloc.Options{})
		s.beFlowIDs = map[*PlacedApp][]alloc.FlowID{}
	}
	// The pool pointer changes on GR admission and fluctuation rebuilds;
	// in-place delta mutations need no notice (capacities are read lazily).
	s.beSolver.SetCapacities(s.beAvailable)
	current := s.liveScratch
	if current == nil {
		current = make(map[*PlacedApp]bool, len(s.be))
		s.liveScratch = current
	} else {
		clear(current)
	}
	for _, pa := range s.be {
		current[pa] = true
	}
	for pa, ids := range s.beFlowIDs {
		if !current[pa] {
			s.beSolver.RemoveFlows(ids)
			delete(s.beFlowIDs, pa)
		}
	}
	// All missing apps' flows go in through one AddFlows call (ids come
	// back in input order): a K-app batch admission reconciles the solver
	// with exactly one insertion instead of K.
	newApps := s.newAppsScratch[:0]
	newFlows := s.newFlowScratch[:0]
	for _, pa := range s.be {
		if _, ok := s.beFlowIDs[pa]; ok {
			continue
		}
		w := pa.App.QoS.Priority / float64(len(pa.Paths))
		for i := range pa.Paths {
			newFlows = append(newFlows, alloc.Flow{Weight: w, Path: pa.Paths[i].P})
		}
		newApps = append(newApps, pa)
	}
	if len(newFlows) > 0 {
		ids, err := s.beSolver.AddFlows(newFlows)
		if err != nil {
			s.newAppsScratch, s.newFlowScratch = newApps[:0], newFlows[:0]
			return alloc.Stats{}, err
		}
		off := 0
		for _, pa := range newApps {
			n := len(pa.Paths)
			s.beFlowIDs[pa] = ids[off : off+n : off+n]
			off += n
		}
	}
	s.newAppsScratch, s.newFlowScratch = newApps[:0], newFlows[:0]
	rates, stats, err := s.beSolver.Solve(s.beRates)
	if err != nil {
		return stats, err
	}
	s.beRates = rates
	for _, pa := range s.be {
		for i, id := range s.beFlowIDs[pa] {
			pa.Paths[i].Rate = rates[id]
		}
	}
	return stats, nil
}

// dropSolver discards the incremental allocation state; the next
// reallocateBE rebuilds it from the admitted apps.
func (s *Scheduler) dropSolver() {
	s.beSolver = nil
	s.beFlowIDs = nil
	s.beRates = nil
}

// recomputeBEAvailable rebuilds the BE capacity pool from scratch: the
// (fluctuation-scaled) base capacities minus every GR reservation.
func (s *Scheduler) recomputeBEAvailable() *network.Capacities {
	caps := s.scaledBaseCapacities()
	for _, pa := range s.gr {
		for _, p := range pa.Paths {
			p.P.Subtract(caps, p.Rate)
		}
	}
	return caps
}

// availPaths converts placement paths to availability paths.
func availPaths(paths []placement.Path) []avail.Path {
	out := make([]avail.Path, len(paths))
	for i, p := range paths {
		elems := p.P.UsedElements()
		ints := make([]int, len(elems))
		for j, e := range elems {
			ints[j] = int(e)
		}
		out[i] = avail.Path{Elements: ints, Rate: p.Rate}
	}
	return out
}
