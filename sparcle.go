// Package sparcle is the public API of the SPARCLE scheduling system for
// stream processing applications over dispersed computing networks
// (Rahimzadeh et al., IEEE ICDCS 2020).
//
// The package re-exports the stable surface of the internal
// implementation: build a Network of computing nodes and links, describe
// applications as TaskGraphs of computation and transport tasks, and
// Submit them to a Scheduler, which places every task (Algorithm 2 over
// Algorithm 1), provisions redundant task-assignment paths until the
// requested availability holds, reserves capacity for guaranteed-rate
// applications, and shares the rest among best-effort applications with
// weighted proportional fairness.
//
//	net, _ := sparcle.NewNetworkBuilder("edge").  ... .Build()
//	app, _ := sparcle.NewTaskGraphBuilder("pipeline"). ... .Build()
//	sched := sparcle.NewScheduler(net)
//	placed, err := sched.Submit(sparcle.App{ ... })
//
// See the examples directory for complete programs and DESIGN.md for the
// architecture.
package sparcle

import (
	"io"
	"log/slog"
	"math/rand"

	"sparcle/internal/assign"
	"sparcle/internal/chaos"
	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/simnet"
	"sparcle/internal/taskgraph"
)

// Resource kinds and vectors.
type (
	// ResourceKind names one resource type ("cpu", "memory", ...).
	ResourceKind = resource.Kind
	// Resources maps resource kinds to amounts: requirements per data
	// unit on tasks, capacities per second on NCPs.
	Resources = resource.Vector
)

// Standard resource kinds.
const (
	CPU    = resource.CPU
	Memory = resource.Memory
)

// Network model.
type (
	// Network is an immutable dispersed computing network.
	Network = network.Network
	// NetworkBuilder incrementally constructs a Network.
	NetworkBuilder = network.Builder
	// NCPID identifies a computing node.
	NCPID = network.NCPID
	// LinkID identifies a link.
	LinkID = network.LinkID
	// Capacities holds residual element capacities.
	Capacities = network.Capacities
)

// NewNetworkBuilder returns a builder for a dispersed computing network.
func NewNetworkBuilder(name string) *NetworkBuilder { return network.NewBuilder(name) }

// Application model.
type (
	// TaskGraph is an immutable application DAG of computation tasks
	// (vertices) and transport tasks (edges).
	TaskGraph = taskgraph.Graph
	// TaskGraphBuilder incrementally constructs a TaskGraph.
	TaskGraphBuilder = taskgraph.Builder
	// CTID identifies a computation task.
	CTID = taskgraph.CTID
	// TTID identifies a transport task.
	TTID = taskgraph.TTID
)

// NewTaskGraphBuilder returns a builder for an application task graph.
func NewTaskGraphBuilder(name string) *TaskGraphBuilder { return taskgraph.NewBuilder(name) }

// Placement and scheduling.
type (
	// Pins maps CTs (data sources, result consumers, or any task the
	// operator wants fixed) to their hosts.
	Pins = placement.Pins
	// Placement is one task assignment path: CTs on NCPs, TTs on link
	// routes.
	Placement = placement.Placement
	// Path couples a placement with its allocated rate.
	Path = placement.Path
	// Algorithm is a pluggable task-assignment algorithm.
	Algorithm = placement.Algorithm

	// App is a stream processing application plus its QoE request.
	App = core.App
	// QoS is the requested quality of experience.
	QoS = core.QoS
	// Class distinguishes best-effort from guaranteed-rate applications.
	Class = core.Class
	// PlacedApp is an admitted application with its paths and rates.
	PlacedApp = core.PlacedApp
	// Scheduler is the SPARCLE system.
	Scheduler = core.Scheduler
	// SchedulerOption configures a Scheduler.
	SchedulerOption = core.Option
)

// Application classes.
const (
	BestEffort     = core.BestEffort
	GuaranteedRate = core.GuaranteedRate
)

// ErrRejected is wrapped by Scheduler.Submit when an application's QoE
// cannot be met.
var ErrRejected = core.ErrRejected

// NewScheduler returns a SPARCLE scheduler over net.
func NewScheduler(net *Network, opts ...SchedulerOption) *Scheduler {
	return core.New(net, opts...)
}

// WithAlgorithm swaps the task assignment algorithm (defaults to SPARCLE's
// dynamic ranking); used to run baselines through the same pipeline.
func WithAlgorithm(alg Algorithm) SchedulerOption { return core.WithAlgorithm(alg) }

// WithDefaultMaxPaths bounds the task-assignment paths per application
// when QoS.MaxPaths is zero.
func WithDefaultMaxPaths(n int) SchedulerOption { return core.WithDefaultMaxPaths(n) }

// WithRandSeed seeds the scheduler's internal randomness.
func WithRandSeed(seed int64) SchedulerOption { return core.WithRandSeed(seed) }

// WithDiverseMultiPath biases later task assignment paths away from
// elements earlier paths use (bias in (0,1)), raising availability per
// path at some rate cost.
func WithDiverseMultiPath(bias float64) SchedulerOption { return core.WithDiverseMultiPath(bias) }

// Observability (see internal/obs): a dependency-free metrics registry,
// span tracing that times every scheduler operation and records its
// decisions, and structured logging, all optional and free when unset.
type (
	// MetricsRegistry holds counters, gauges and histograms and exposes
	// them as Prometheus text or a JSON snapshot.
	MetricsRegistry = obs.Registry
	// MetricLabel is one name/value label on a metric series.
	MetricLabel = obs.Label
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanTracer returns a span tracer writing one JSON line per finished
// span to w; attach it with Scheduler.SetSpans and Close it to flush.
// Every operation's span tree carries its decisions: Algorithm 2's pinned
// placements, ranked picks (γ and candidate scores) and routes, and the
// admission, repair and allocation verdicts (see docs/observability.md).
func NewSpanTracer(w io.Writer) *obs.SpanTracer {
	return obs.NewSpanTracer(obs.SpanOptions{JSONL: w})
}

// WithMetrics publishes scheduler metrics (admissions, placement latency,
// repairs, per-app rates, allocation solves) into reg.
func WithMetrics(reg *MetricsRegistry) SchedulerOption { return core.WithMetrics(reg) }

// WithLogger attaches a structured logger to the scheduler; see
// NewObsLogger for a ready-made stderr logger.
func WithLogger(l *slog.Logger) SchedulerOption { return core.WithLogger(l) }

// NewObsLogger returns a text slog.Logger writing to w at the given level.
func NewObsLogger(w io.Writer, level slog.Level) *slog.Logger { return obs.NewLogger(w, level) }

// DynamicRanking returns SPARCLE's task assignment algorithm (Algorithm 2)
// for direct use outside a Scheduler.
func DynamicRanking() Algorithm { return assign.Sparcle{} }

// Capacity fluctuation (resource dynamics beyond the paper; see
// Scheduler.ApplyFluctuation and Scheduler.Repair).
type (
	// ElementScale maps network elements to capacity scale factors.
	ElementScale = core.ElementScale
	// FluctuationReport describes the effect of a capacity fluctuation.
	FluctuationReport = core.FluctuationReport
)

// NCPElementOf returns the fluctuation/availability element id of an NCP.
func NCPElementOf(v NCPID) placement.Element { return placement.NCPElement(v) }

// LinkElementOf returns the element id of a link in net.
func LinkElementOf(net *Network, l LinkID) placement.Element {
	return placement.LinkElement(net, l)
}

// AssignOnce runs one task assignment of graph onto net at full element
// capacities and returns the placement and its maximum stable processing
// rate.
func AssignOnce(graph *TaskGraph, pins Pins, net *Network) (*Placement, float64, error) {
	caps := net.BaseCapacities()
	p, err := assign.Sparcle{}.Assign(graph, pins, net, caps)
	if err != nil {
		return nil, 0, err
	}
	return p, p.Rate(caps), nil
}

// MultiPathAssign finds up to maxPaths task assignment paths, each at the
// bottleneck rate the residual network supports (§IV.D).
func MultiPathAssign(graph *TaskGraph, pins Pins, net *Network, maxPaths int) ([]Path, error) {
	paths, _, err := assign.MultiPath(assign.Sparcle{}, graph, pins, net, net.BaseCapacities(), maxPaths)
	return paths, err
}

// Simulation.
type (
	// Simulator executes placed applications as a discrete-event
	// queueing network.
	Simulator = simnet.Sim
	// SimConfig controls one simulation run.
	SimConfig = simnet.Config
	// SimReport is the outcome of a simulation run.
	SimReport = simnet.Report
)

// NewSimulator returns a discrete-event simulator over net.
func NewSimulator(net *Network) *Simulator { return simnet.New(net) }

// NewRand returns a deterministic random source for the helpers that take
// one; the library never uses global randomness.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Chaos engineering (see internal/chaos): calibrated failure-trace
// generation, injection with a self-healing repair loop, and
// measured-vs-analytical availability.
type (
	// FailureTrace is a replayable per-element outage schedule.
	FailureTrace = chaos.Trace
	// FailureTraceConfig parameterizes GenerateFailureTrace.
	FailureTraceConfig = chaos.TraceConfig
	// Outage is one element down interval of a FailureTrace.
	Outage = chaos.Outage
	// ChaosPolicy bounds the self-healing loop: repair attempts per
	// episode, exponential backoff with jitter, and the repair-storm
	// budget.
	ChaosPolicy = chaos.Policy
	// ChaosDriver replays a FailureTrace against a Scheduler and heals
	// violated guarantees.
	ChaosDriver = chaos.Driver
	// ChaosResult is the measured outcome of a chaos run.
	ChaosResult = chaos.Result
	// ChaosOption configures a ChaosDriver.
	ChaosOption = chaos.Option
)

// GenerateFailureTrace draws a failure trace for every fallible element of
// net from the alternating renewal process calibrated so each element's
// time-average unavailability equals its FailProb.
func GenerateFailureTrace(net *Network, cfg FailureTraceConfig) (*FailureTrace, error) {
	return chaos.Generate(net, cfg)
}

// FailureTraceFromOutages builds a fixed-scenario trace from an explicit
// outage list.
func FailureTraceFromOutages(horizon float64, outages []Outage) (*FailureTrace, error) {
	return chaos.FromOutages(horizon, outages)
}

// NewChaosDriver returns a driver replaying failure traces against sched
// under policy.
func NewChaosDriver(sched *Scheduler, policy ChaosPolicy, opts ...ChaosOption) *ChaosDriver {
	return chaos.NewDriver(sched, policy, opts...)
}

// WithChaosMetrics publishes the driver's failure/repair/availability
// metrics into reg.
func WithChaosMetrics(reg *MetricsRegistry) ChaosOption { return chaos.WithMetrics(reg) }

// WithChaosLogger attaches a structured logger to the chaos driver.
func WithChaosLogger(l *slog.Logger) ChaosOption { return chaos.WithLogger(l) }
