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
}

// Control is the full surface of one scheduler: the read view of its
// mutable state (placement view, BE capacity pool, alloc solver rows,
// journal commit hook) plus admission (SubmitBatch; Submit is a batch of
// one), withdrawal, repair, fluctuation, durable export and
// committed-record replay, the request-span bracket, and the metrics
// registry (which a router's group committer and verdict counters report
// to as well). *Scheduler implements it. It is the seam along which schedulers
// compose — a region-sharded control plane runs one Control per region,
// routes operations to them, and observes its members through it
// without reaching into concrete fields.
type Control interface {
	// GRApps and BEApps are the placement view: the admitted applications
	// of each class, in admission order; BEApps settles their rates.
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
	// Metrics is the registry the scheduler reports to (nil for none).
	Metrics() *obs.Registry
}

var _ Control = (*Scheduler)(nil)

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
