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
	// reserved rate of each path; for BE apps it is the proportional-fair
	// allocation as of the scheduler's last settle (see settle).
	Paths []placement.Path
	// Availability is the achieved QoE probability: at-least-one-path for
	// BE apps, min-rate availability for GR apps.
	Availability float64

	// footprint is the eq. (6) footprint (BE apps), kept on the resident
	// so that no admission re-derives it for the whole resident set; the
	// first prediction that reads it builds it (paths never change).
	footprint alloc.Footprint
	// flows are the BE solver's flow ids of Paths, in path order; nil while
	// the solver does not hold the app (see incrementalSolve, dropSolver).
	flows []alloc.FlowID
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
// placement and allocation latency histograms and the allocation
// counters. It writes no gauge: RenderGauges renders those from the
// residents at scrape, and the verdict counters (admissions, repairs,
// fluctuations) belong to whoever serves the logical applications. The
// default (no registry) records nothing and costs nothing.
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
// bookkeeping and the set of admitted applications. A region-sharded
// deployment (internal/shard) runs one Scheduler per region.
type Scheduler struct {
	// beAvailable is the capacity available to the BE class: (possibly
	// fluctuation-scaled) base capacities minus every GR reservation, in
	// s.gr order. It is always recomputeBEAvailable()'s value, bit for bit
	// (see delta.go).
	beAvailable *network.Capacities
	gr          []*PlacedApp
	be          []*PlacedApp

	// beSolver incrementally re-solves problem (4), keeping constraint
	// rows and dual prices across churn events so each re-solve
	// warm-starts near the previous optimum. While it is set, every BE
	// resident it holds carries its flow ids (PlacedApp.flows), and a
	// departing resident takes its flows out (unlist).
	beSolver *alloc.Solver
	// unsolved counts the removals since the last BE solve: while it is
	// nonzero the residents' rates are stale (see settle).
	unsolved int

	// scale holds the current capacity fluctuation (see ApplyFluctuation);
	// nil means nominal capacities.
	scale ElementScale

	// commit, when set, persists a Record for every mutating operation
	// before the operation returns (see durable.go).
	commit CommitHook

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

	// noPrediction disables the eq. (6) capacity prediction (ablation).
	noPrediction bool

	// batching marks a SubmitBatch in progress, so that a nested one
	// (from a caller-supplied algorithm, say) is refused.
	batching bool

	// Reused per-operation scratch (never part of durable state): the
	// eq. (6) footprint slice and prediction buffer of every BE
	// admission, and the new-flow slice and rate vector of every BE solve.
	// Pooling these takes the steady-churn allocation count down without
	// changing behaviour — all are fully overwritten before each use.
	fpScratch      []alloc.Footprint
	prediction     alloc.Prediction
	newFlowScratch []alloc.Flow
	rateScratch    []float64
}

// Control is the scheduler type under its former interface name.
//
// Deprecated: use *Scheduler. The only remaining callers are in the
// repository benchmark (benchmark/probe.go, benchmark/check.go); the
// alias goes when they stop naming it.
type Control = *Scheduler

// New returns a Scheduler over net.
func New(net *network.Network, opts ...Option) *Scheduler {
	s := &Scheduler{
		beAvailable: net.BaseCapacities(),
		net:         net,
		alg:         assign.Sparcle{},
		log:         obs.NopLogger(),
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
		s.metrics.SetHelp(metricPlacementSeconds, "Latency of placing one application during admission (assignment, path multiplication, availability analysis; the batch's best-effort solve is excluded), seconds.")
		s.metrics.SetHelp(metricAppRate, "Current total allocated rate per admitted application, data units per second.")
		s.metrics.SetHelp(metricAppsAdmitted, "Currently admitted applications by class.")
		s.metrics.SetHelp(metricAllocSolves, "Total best-effort rate-allocation solves by solver.")
		s.metrics.SetHelp(metricAllocSeconds, "Latency of best-effort rate-allocation solves, seconds.")
		s.metrics.SetHelp(metricWarmSolves, "Total best-effort rate-allocation solves warm-started from the previous dual prices.")
		s.metrics.SetHelp(metricAllocNNZ, "Live constraint-matrix nonzeros of the best-effort allocation solvers, summed over shards.")
		s.metrics.SetHelp(metricAllocCycles, "Dual coordinate-descent cycles per best-effort allocation solve, by start mode.")
		s.metrics.SetHelp(metricAllocRowEvals, "Total constraint-row demand evaluations made by best-effort allocation solves.")
		s.metrics.SetHelp(metricAllocUnconverged, "Total best-effort allocation solves that ran out of cycles before converging; their rates are installed anyway.")
	}
	return s
}

// Metric names maintained by the scheduler, and by RenderGauges.
const (
	metricPlacementSeconds = "sparcle_placement_seconds"
	metricAppRate          = "sparcle_app_allocated_rate"
	metricAppsAdmitted     = "sparcle_apps_admitted"
	metricAllocSolves      = "sparcle_alloc_solves_total"
	metricAllocSeconds     = "sparcle_alloc_solve_seconds"
	metricWarmSolves       = "sparcle_alloc_warm_solves_total"
	metricAllocNNZ         = "sparcle_alloc_rows_nnz"
	metricAllocCycles      = "sparcle_alloc_solve_cycles"
	metricAllocRowEvals    = "sparcle_alloc_row_evals_total"
	metricAllocUnconverged = "sparcle_alloc_unconverged_total"
)

// allocCycleBuckets tiles the warm (1-3 cycles) through cold (tens to
// hundreds) convergence regimes of the dual descent.
var allocCycleBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 100, 200, 300}

// logging reports whether the logger records anything; logBatch and
// Repair skip building their log lines when it does not.
func (s *Scheduler) logging() bool {
	return s.log.Enabled(nil, slog.LevelWarn)
}

// RenderGauges renders the scheduler gauges onto reg from state: one
// sparcle_app_allocated_rate series per resident at its total rate, the
// per-class resident counts of sparcle_apps_admitted, and nnz, the live
// constraint-matrix entries of the BE solvers, as sparcle_alloc_rows_nnz.
// Each list in residents is one scheduler's (a region's, behind a
// router), whose names are unique. Every family is replaced whole, so a
// departed resident's series is gone by construction. A server calls it
// on each scrape with every region's residents.
func RenderGauges(reg *obs.Registry, nnz int, residents ...[]*PlacedApp) {
	if reg == nil {
		return
	}
	var rates []obs.Sample
	gr, be := 0, 0
	for _, list := range residents {
		for _, pa := range list {
			class := pa.App.QoS.Class
			if class == GuaranteedRate {
				gr++
			} else {
				be++
			}
			rates = append(rates, obs.Sample{
				Labels: []obs.Label{obs.L("app", pa.App.Name), obs.L("class", class.String())},
				Value:  pa.TotalRate(),
			})
		}
	}
	reg.ReplaceGauges(metricAppRate, rates)
	reg.ReplaceGauges(metricAppsAdmitted, []obs.Sample{
		{Labels: []obs.Label{obs.L("class", GuaranteedRate.String())}, Value: float64(gr)},
		{Labels: []obs.Label{obs.L("class", BestEffort.String())}, Value: float64(be)},
	})
	reg.ReplaceGauges(metricAllocNNZ, []obs.Sample{{Value: float64(nnz)}})
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

// BEApps returns the admitted Best-Effort applications, their rates
// settled first (see settle).
func (s *Scheduler) BEApps() []*PlacedApp {
	_ = s.settle()
	return append([]*PlacedApp(nil), s.be...)
}

// NumApps returns the number of admitted applications of each class. It
// neither copies the lists nor settles rates, so reading it moves no solve.
func (s *Scheduler) NumApps() (gr, be int) { return len(s.gr), len(s.be) }

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

// Metrics returns the registry WithMetrics attached, nil without one.
func (s *Scheduler) Metrics() *obs.Registry { return s.metrics }

// SolverRows reports the live flow and constraint-nonzero counts of the
// incremental BE solver; both are 0 while no warm solver exists (before
// the first solve or after dropSolver).
func (s *Scheduler) SolverRows() (flows, nnz int) {
	if s.beSolver == nil {
		return 0, 0
	}
	return s.beSolver.Len(), s.beSolver.NNZ()
}

// Utility returns the problem-(4) objective over admitted BE apps:
// sum of Priority * log(total rate), over settled rates.
func (s *Scheduler) Utility() float64 {
	_ = s.settle()
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
// and resource allocation. It is SubmitBatch with a batch of one and
// returns the placed application, or an error wrapping ErrRejected when
// the QoE cannot be met (the scheduler state is then unchanged).
//
// When a durability hook is installed, the decision is committed to the
// journal as one batch record before Submit returns; a commit failure
// surfaces as ErrDurability alongside the placed app.
func (s *Scheduler) Submit(app App) (*PlacedApp, error) {
	res, err := s.SubmitBatch([]App{app})
	if len(res) == 0 {
		return nil, err
	}
	if errors.Is(err, ErrDurability) {
		return res[0].App, err
	}
	return res[0].App, res[0].Err
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
	sp.SetAttr("outcome", SubmitOutcome(err))
	if err != nil {
		sp.SetAttr("reason", err.Error())
		return
	}
	sp.SetInt("paths", int64(len(pa.Paths)))
	sp.SetFloat("rate", pa.TotalRate())
	sp.SetFloat("availability", pa.Availability)
}

// submit places one application of a batch: it joins the resident set,
// and the batch's end solves, evicts it at zero rate, or rolls it back.
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
// their resources, until the min-rate availability target is reached. The
// batch's end re-solves the BE rates on the shrunken pool.
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
		// A path that loads no element supports any rate, and Rate reads 0
		// for it: a capped reservation (a cross-region half whose CTs all
		// sit on its border endpoint) reserves its cap, an uncapped one
		// cannot be made.
		rate := p.Rate(residual)
		unbounded := len(p.LoadedNCPs()) == 0 && len(p.LoadedLinks()) == 0
		if cap := app.QoS.RateCap; cap > 0 && (rate > cap || unbounded) {
			rate = cap
		}
		if rate <= 0 {
			break
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
			s.gr = append(s.gr, pa)
			s.beAvailable = residual
			return pa, nil
		}
	}
	return nil, fmt.Errorf("core: GR app %q: min-rate availability %.4f < requested %.4f with %d path(s): %w",
		app.Name, achieved, app.QoS.MinRateAvailability, len(paths), ErrRejected)
}

// submitBE implements the BE pipeline of Fig. 3 steps 1-5: predict this
// app's capacity share from priorities (eq. (6)), assign paths until the
// availability target holds. The batch's end re-solves problem (4) across
// all BE apps.
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
		// behaviour eq. (6) exists to avoid. It reads their rates.
		_ = s.settle()
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
		if rate <= 0 {
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
	return pa, nil
}

// settle solves problem (4) while removals have left the BE rates
// unsolved. Every reader of those rates calls it first, so it sees the
// solution for the current resident set; the batch, repair and fluctuation
// solves absorb pending removals too. A failed settle stays pending for
// the next reader, and only readers with an error to return report it.
func (s *Scheduler) settle() error {
	if s.unsolved == 0 {
		return nil
	}
	return s.reallocateBE()
}

// reallocateBE re-solves problem (4) for all admitted BE applications and
// writes the resulting rates back onto their paths. Each path is a flow
// weighted by Priority/len(paths), so an application's aggregate weight is
// its priority regardless of how many availability paths it holds.
//
// The scheduler-owned alloc.Solver keeps the sparse constraint rows and
// dual prices of the previous solve, so the descent warm-starts from the
// previous prices. A failed solve drops it and retries once on a fresh
// solver, which starts cold.
func (s *Scheduler) reallocateBE() error {
	if len(s.be) == 0 {
		s.unsolved = 0
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
		// A fresh solver that fails too is dropped as well, so no resident
		// a failed batch rolls back still holds flows.
		s.dropSolver()
		if stats, err = s.incrementalSolve(); err != nil {
			s.dropSolver()
		}
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
	ssp.SetInt("newtonSteps", int64(stats.NewtonSteps))
	if s.unsolved > 0 {
		ssp.SetInt("folded", int64(s.unsolved))
	}
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
		s.metrics.Histogram(metricAllocCycles, allocCycleBuckets, obs.L("mode", mode)).Observe(float64(stats.Cycles))
		s.metrics.Counter(metricAllocRowEvals).Add(float64(stats.RowEvals))
		if unconverged := s.metrics.Counter(metricAllocUnconverged); !stats.Converged && err == nil {
			unconverged.Inc()
		}
	}
	if err != nil {
		return fmt.Errorf("core: best-effort rate allocation: %w", err)
	}
	s.unsolved = 0
	return nil
}

// incrementalSolve adds the residents the scheduler-owned Solver does not
// hold yet, warm-starts the dual descent, and writes the rates back.
func (s *Scheduler) incrementalSolve() (alloc.Stats, error) {
	if s.beSolver == nil {
		s.beSolver = alloc.NewSolver(s.beAvailable, alloc.Options{})
	}
	// The pool pointer changes on GR admission and fluctuation rebuilds;
	// in-place delta mutations need no notice (capacities are read lazily).
	s.beSolver.SetCapacities(s.beAvailable)
	// All missing apps' flows go in through one AddFlows call, in resident
	// order (ids come back in input order): a K-app batch admission adds
	// its flows with exactly one insertion instead of K.
	newFlows := s.newFlowScratch[:0]
	for _, pa := range s.be {
		if pa.flows != nil {
			continue
		}
		w := pa.App.QoS.Priority / float64(len(pa.Paths))
		for i := range pa.Paths {
			newFlows = append(newFlows, alloc.Flow{Weight: w, Path: pa.Paths[i].P})
		}
	}
	s.newFlowScratch = newFlows[:0]
	if len(newFlows) > 0 {
		ids, err := s.beSolver.AddFlows(newFlows)
		if err != nil {
			return alloc.Stats{}, err
		}
		for _, pa := range s.be {
			if pa.flows == nil {
				n := len(pa.Paths)
				pa.flows, ids = ids[:n:n], ids[n:]
			}
		}
	}
	rates, stats, err := s.beSolver.Solve(s.rateScratch)
	if err != nil {
		return stats, err
	}
	s.rateScratch = rates
	for _, pa := range s.be {
		for i, id := range pa.flows {
			pa.Paths[i].Rate = rates[id]
		}
	}
	return stats, nil
}

// dropSolver discards the incremental allocation state; the next
// reallocateBE rebuilds it from the admitted apps.
func (s *Scheduler) dropSolver() {
	s.beSolver = nil
	for _, pa := range s.be {
		pa.flows = nil
	}
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
