package core

import (
	"sparcle/internal/alloc"
	"sparcle/internal/network"
	"sparcle/internal/obs"
)

// This file is the scheduler-state extraction that lets schedulers
// compose: everything a Scheduler MUTATES — the placement view (admitted
// apps), the BE capacity pool, the incremental alloc solver rows, and the
// journal commit hook — lives in one embedded state struct, and the
// Control interface exposes it uniformly. A region-sharded deployment
// (internal/shard) holds one Control per region and coordinates them at
// the borders; a single-scheduler deployment keeps using *Scheduler
// directly. Embedding (rather than an indirection) keeps the single-shard
// hot path byte-identical to the pre-extraction scheduler: the same
// fields, the same float arithmetic, zero added dereferences.

// state is the mutable half of a Scheduler. The immutable configuration
// (network, algorithm, options, telemetry sinks) stays on Scheduler
// itself.
type state struct {
	// beAvailable is the capacity available to the BE class: (possibly
	// fluctuation-scaled) base capacities minus all GR reservations. It is
	// maintained incrementally — GR admissions and removals apply their
	// paths' Subtract/AddBack deltas — and rebuilt from scratch only on
	// fluctuation rescaling (or while poolClamped, see below).
	beAvailable *network.Capacities
	gr          []*PlacedApp
	be          []*PlacedApp

	// beSolver incrementally re-solves problem (4), keeping constraint
	// rows and dual prices across churn events so each re-solve
	// warm-starts near the previous optimum. beFlowIDs maps each admitted
	// BE app to its solver flow ids (one per path, in path order), and
	// beRates is the reusable rate map of the last solve.
	beSolver  *alloc.Solver
	beFlowIDs map[*PlacedApp][]alloc.FlowID
	beRates   map[alloc.FlowID]float64
	// poolClamped records that a fluctuation left some element's GR
	// reservations above its scaled capacity: the zero-clamp in Subtract
	// then makes the pool lossy, so releasing a GR path by AddBack would
	// over-credit. While set, GR releases fall back to a full rebuild.
	poolClamped bool

	// scale holds the current capacity fluctuation (see ApplyFluctuation);
	// nil means nominal capacities.
	scale ElementScale

	// commit, when set, persists a Record for every mutating operation
	// before the operation returns (see durable.go).
	commit CommitHook
}

// Control is the full surface of one scheduler: the read view of its
// mutable state (placement view, BE capacity pool, alloc solver rows,
// journal commit hook) plus admission, withdrawal, repair, fluctuation,
// batching, durable export and committed-record replay, and the
// request-span bracket. *Scheduler implements it. It is the seam along
// which schedulers compose — a region-sharded control plane runs one
// Control per region, routes operations to them, and observes its
// members through it without reaching into concrete fields.
type Control interface {
	// GRApps and BEApps are the placement view: the admitted applications
	// of each class, in admission order.
	GRApps() []*PlacedApp
	BEApps() []*PlacedApp
	// BEAvailableCapacities is a copy of the BE capacity pool (base minus
	// GR reservations, under the current fluctuation scale).
	BEAvailableCapacities() *network.Capacities
	// SolverRows reports the live flow and constraint-nonzero counts of
	// the incremental BE solver (0, 0 before the first warm solve).
	SolverRows() (flows, nnz int)
	// SetCommitHook installs (or clears, with nil) the durability commit
	// hook.
	SetCommitHook(CommitHook)

	Submit(App) (*PlacedApp, error)
	SubmitBatch([]App) ([]BatchResult, error)
	Remove(string) error
	Repair(string) (*PlacedApp, error)
	ApplyFluctuation(ElementScale) (*FluctuationReport, error)
	ExportSnapshot() (*Snapshot, error)
	ApplyCommitted(*Record) error
	SetSpans(*obs.SpanTracer)
	SetRequestSpan(*obs.Span)
	OpSpan() *obs.Span
}

var _ Control = (*Scheduler)(nil)

// SolverRows reports the live flow and constraint-nonzero counts of the
// incremental BE solver; both are 0 while no warm solver exists (before
// the first solve or after dropSolver).
func (s *Scheduler) SolverRows() (flows, nnz int) {
	if s.beSolver == nil {
		return 0, 0
	}
	return s.beSolver.Len(), s.beSolver.NNZ()
}
