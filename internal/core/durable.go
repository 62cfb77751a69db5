package core

import (
	"errors"
	"fmt"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// This file is the scheduler half of the durable control plane: every
// mutating operation (batch, remove, repair, fluctuation) can emit
// one Record through a commit hook, ExportSnapshot captures the full
// scheduler state, and Rebuild reconstructs a Scheduler from snapshot +
// record tail that is byte-identical to the one that emitted them.
//
// The design choice that makes byte equality tractable: records carry the
// operation's OUTCOME (placements and rates), not just its request, so
// replay is structural — it applies the recorded placements with the same
// sparse capacity arithmetic the live path used, and never re-runs the
// assignment algorithm or the rate solver. Re-execution would have to
// reproduce warm-start solver noise bit-for-bit; applying results only
// has to repeat deterministic float arithmetic.

// ErrNotFound is wrapped by Remove and Repair when no admitted
// application has the requested name. The operation had no effect, so
// such calls are not journaled.
var ErrNotFound = errors.New("core: application not found")

// ErrDurability is wrapped when an operation was applied in memory but
// its journal record could not be committed. The scheduler state and the
// journal have diverged; the caller should treat the control plane as
// failed rather than acknowledge the operation.
var ErrDurability = errors.New("core: durability commit failed")

// CommitHook persists one operation record; it is called after the
// operation has fully applied and before the operation returns. An error
// from the hook is surfaced to the operation's caller wrapped in
// ErrDurability.
type CommitHook func(*Record) error

// SetCommitHook installs (or clears, with nil) the durability commit
// hook on a live scheduler. The server uses this to arm journaling after
// recovery, which must itself run without a hook.
func (s *Scheduler) SetCommitHook(h CommitHook) { s.commit = h }

// Operation names used in Record.Op. Every admission, Submit included,
// writes an OpBatch record.
const (
	OpBatch       = "batch"
	OpRemove      = "remove"
	OpRepair      = "repair"
	OpFluctuation = "fluctuation"
)

// Record is one journaled control-plane operation, carrying enough of the
// outcome for structural replay.
type Record struct {
	Op string `json:"op"`
	// Outcome is "ok"/"error" for batches, removes and fluctuations,
	// "repaired"/"failed" for repairs.
	Outcome string `json:"outcome"`
	// Name is the target application (remove, repair).
	Name string `json:"name,omitempty"`
	// Reason carries the operation error text, for operators reading the
	// journal; replay does not interpret it.
	Reason string `json:"reason,omitempty"`
	// App is the admitted/repaired application's definition, placements
	// and rates (nil when nothing was placed).
	App *AppState `json:"app,omitempty"`
	// Batch holds the per-app verdicts of one atomic batch admission.
	Batch []BatchRecordEntry `json:"batch,omitempty"`
	// Scale is the fluctuation's element scale map (nil restores nominal).
	Scale ElementScale `json:"scale,omitempty"`
	// BERates maps every admitted best-effort application to its post-
	// operation per-path rates; replay sets them verbatim instead of
	// re-solving.
	BERates map[string][]float64 `json:"beRates,omitempty"`
}

// BatchRecordEntry is one application's verdict inside a batch record.
type BatchRecordEntry struct {
	Name    string    `json:"name"`
	Outcome string    `json:"outcome"`
	Reason  string    `json:"reason,omitempty"`
	App     *AppState `json:"app,omitempty"`
}

// Snapshot is the full persistent state of a Scheduler: its decisions,
// the fluctuation scale and the residents. Everything derivable from it
// is deliberately absent: the BE capacity pool (recomputed from the scale
// and the GR list, the same bits the live scheduler holds), solver
// warm-start state, footprints and metric gauges. A recovered scheduler
// re-derives those, at the cost of one cold solve after restart.
// Snapshots that still carry the pool fields an older binary wrote
// decode, and the fields are ignored.
type Snapshot struct {
	Scale ElementScale `json:"scale,omitempty"`
	GR    []AppState   `json:"gr"`
	BE    []AppState   `json:"be"`
}

// AppState is an admitted application: its full definition (the journal
// must be self-contained) plus placements and rates.
type AppState struct {
	Def          AppDef      `json:"def"`
	Paths        []PathState `json:"paths"`
	Availability float64     `json:"availability"`
}

// PathState is one task assignment path with its rate.
type PathState struct {
	Placement placement.Encoded `json:"placement"`
	Rate      float64           `json:"rate"`
}

// AppDef serializes an App.
type AppDef struct {
	Name  string      `json:"name"`
	Graph GraphDef    `json:"graph"`
	Pins  map[int]int `json:"pins,omitempty"`
	QoS   QoS         `json:"qos"`
}

// GraphDef serializes a task graph.
type GraphDef struct {
	Name string  `json:"name"`
	CTs  []CTDef `json:"cts"`
	TTs  []TTDef `json:"tts"`
}

// CTDef serializes one computation task.
type CTDef struct {
	Name string          `json:"name"`
	Req  resource.Vector `json:"req,omitempty"`
}

// TTDef serializes one transport task.
type TTDef struct {
	Name string  `json:"name"`
	From int     `json:"from"`
	To   int     `json:"to"`
	Bits float64 `json:"bits"`
}

// --- export ---

// ExportSnapshot captures the scheduler's full persistent state. The
// result marshals deterministically (slices are ordered, map keys are
// sorted by encoding/json), so byte comparison of marshaled snapshots is
// the state-equality test used throughout the recovery suite. It settles.
func (s *Scheduler) ExportSnapshot() (*Snapshot, error) {
	if err := s.settle(); err != nil {
		return nil, err
	}
	snap := &Snapshot{Scale: s.scale, GR: []AppState{}, BE: []AppState{}}
	for _, pa := range s.gr {
		st, err := exportApp(pa)
		if err != nil {
			return nil, err
		}
		snap.GR = append(snap.GR, st)
	}
	for _, pa := range s.be {
		st, err := exportApp(pa)
		if err != nil {
			return nil, err
		}
		snap.BE = append(snap.BE, st)
	}
	return snap, nil
}

func exportApp(pa *PlacedApp) (AppState, error) {
	st := AppState{
		Def:          exportAppDef(pa.App),
		Availability: pa.Availability,
	}
	for _, p := range pa.Paths {
		enc, err := p.P.Encode()
		if err != nil {
			return AppState{}, fmt.Errorf("core: export %q: %w", pa.App.Name, err)
		}
		st.Paths = append(st.Paths, PathState{Placement: enc, Rate: p.Rate})
	}
	return st, nil
}

func exportAppDef(app App) AppDef {
	def := AppDef{
		Name: app.Name,
		QoS:  app.QoS,
		Graph: GraphDef{
			Name: app.Graph.Name(),
		},
	}
	for ct := 0; ct < app.Graph.NumCTs(); ct++ {
		c := app.Graph.CT(taskgraph.CTID(ct))
		def.Graph.CTs = append(def.Graph.CTs, CTDef{Name: c.Name, Req: c.Req.Clone()})
	}
	for tt := 0; tt < app.Graph.NumTTs(); tt++ {
		t := app.Graph.TT(taskgraph.TTID(tt))
		def.Graph.TTs = append(def.Graph.TTs, TTDef{Name: t.Name, From: int(t.From), To: int(t.To), Bits: t.Bits})
	}
	if len(app.Pins) > 0 {
		def.Pins = make(map[int]int, len(app.Pins))
		for ct, ncp := range app.Pins {
			def.Pins[int(ct)] = int(ncp)
		}
	}
	return def
}

// BuildApp reconstructs the App (including its task graph) from a
// definition.
func (d AppDef) BuildApp() (App, error) { return d.build() }

// build reconstructs the App (including its task graph) from a
// definition.
func (d AppDef) build() (App, error) {
	b := taskgraph.NewBuilder(d.Graph.Name)
	for _, ct := range d.Graph.CTs {
		b.AddCT(ct.Name, ct.Req)
	}
	for _, tt := range d.Graph.TTs {
		b.AddTT(tt.Name, taskgraph.CTID(tt.From), taskgraph.CTID(tt.To), tt.Bits)
	}
	g, err := b.Build()
	if err != nil {
		return App{}, fmt.Errorf("core: rebuild graph of %q: %w", d.Name, err)
	}
	app := App{Name: d.Name, Graph: g, QoS: d.QoS}
	if len(d.Pins) > 0 {
		app.Pins = make(placement.Pins, len(d.Pins))
		for ct, ncp := range d.Pins {
			app.Pins[taskgraph.CTID(ct)] = network.NCPID(ncp)
		}
	}
	return app, nil
}

// buildPlaced reconstructs a PlacedApp: the definition's graph plus the
// decoded placements at their recorded rates.
func (st AppState) buildPlaced(net *network.Network) (*PlacedApp, error) {
	app, err := st.Def.build()
	if err != nil {
		return nil, err
	}
	return st.buildPlacedOn(app, net)
}

// buildPlacedOn is buildPlaced against an existing App (repair replay
// keeps the admitted app's graph identity instead of rebuilding it).
func (st AppState) buildPlacedOn(app App, net *network.Network) (*PlacedApp, error) {
	pa := &PlacedApp{App: app, Availability: st.Availability}
	for i, ps := range st.Paths {
		p, err := placement.Decode(ps.Placement, app.Graph, net)
		if err != nil {
			return nil, fmt.Errorf("core: rebuild %q path %d: %w", app.Name, i, err)
		}
		pa.Paths = append(pa.Paths, placement.Path{P: p, Rate: ps.Rate})
	}
	return pa, nil
}

// --- commit helpers ---

// commitRecord finalizes and persists one record through the hook. It
// stamps the post-operation BE rates, which every record carries, settled
// first (a journaled removal solves here): a failed settle turns an "ok"
// outcome into "error" and is returned once the record is committed.
func (s *Scheduler) commitRecord(rec *Record) error {
	if s.commit == nil {
		return nil
	}
	err := s.settle()
	if err != nil && rec.Outcome == "ok" {
		rec.Outcome, rec.Reason = "error", err.Error()
	}
	rec.BERates = s.exportBERates()
	if cerr := s.commit(rec); cerr != nil {
		return fmt.Errorf("%w: %v", ErrDurability, cerr)
	}
	return err
}

func (s *Scheduler) exportBERates() map[string][]float64 {
	if len(s.be) == 0 {
		return nil
	}
	out := make(map[string][]float64, len(s.be))
	for _, pa := range s.be {
		rates := make([]float64, len(pa.Paths))
		for i := range pa.Paths {
			rates[i] = pa.Paths[i].Rate
		}
		out[pa.App.Name] = rates
	}
	return out
}

// SubmitOutcome classifies an admission error as the outcome that
// records, spans and the admission counter carry: "admitted",
// "rejected" (ErrRejected) or "error".
func SubmitOutcome(err error) string {
	switch {
	case err == nil:
		return "admitted"
	case errors.Is(err, ErrRejected):
		return "rejected"
	default:
		return "error"
	}
}

// --- rebuild and replay ---

// Rebuild reconstructs a Scheduler on net from a recovered snapshot
// (which may be nil: an empty journal) and the record tail after it. The
// options must match the ones the original scheduler ran with — the
// journal records outcomes, not configuration.
//
// The result is byte-identical (ExportSnapshot marshaling) to the
// scheduler that emitted the records: placements, rates and the sparse
// loaded-element lists all pin, and the capacity pool, a function of the
// scale and the GR list, holds the same bits.
// Solver warm-start state is not persisted; the first re-allocation after
// a rebuild solves cold.
func Rebuild(net *network.Network, snap *Snapshot, recs []*Record, opts ...Option) (*Scheduler, error) {
	s := New(net, opts...)
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			return nil, err
		}
	}
	for i, rec := range recs {
		if err := s.ApplyCommitted(rec); err != nil {
			return nil, fmt.Errorf("core: replay record %d (%s %s): %w", i, rec.Op, rec.Name, err)
		}
	}
	return s, nil
}

func (s *Scheduler) restoreSnapshot(snap *Snapshot) error {
	if err := snap.Scale.Validate(s.net); err != nil {
		return fmt.Errorf("core: snapshot scale: %w", err)
	}
	s.scale = snap.Scale
	for _, st := range snap.GR {
		pa, err := st.buildPlaced(s.net)
		if err != nil {
			return err
		}
		s.gr = append(s.gr, pa)
	}
	for _, st := range snap.BE {
		pa, err := st.buildPlaced(s.net)
		if err != nil {
			return err
		}
		s.be = append(s.be, pa)
	}
	s.beAvailable = s.recomputeBEAvailable()
	return nil
}

// ApplyCommitted structurally applies one committed operation record: the
// same splice, subtract and pool recompute as the live path, rates set
// verbatim, no solver or assignment re-execution. Rebuild folds it over a
// journal tail, and a replication follower stays hot through it. The
// caller provides external serialization (the router applies under the
// shard lock).
func (s *Scheduler) ApplyCommitted(rec *Record) error {
	if rec == nil {
		return errors.New("core: no record to apply")
	}
	switch rec.Op {
	case OpBatch:
		for _, e := range rec.Batch {
			if e.App == nil {
				continue
			}
			if err := s.replayAdmit(e.App); err != nil {
				return fmt.Errorf("batch entry %q: %w", e.Name, err)
			}
		}
	case OpRemove:
		// The live path's settle at commit is replaced by the record's
		// verbatim rates.
		if !s.withdraw(rec.Name) {
			return fmt.Errorf("recorded remove of unknown app %q", rec.Name)
		}
	case OpRepair:
		if err := s.replayRepair(rec); err != nil {
			return err
		}
	case OpFluctuation:
		if err := rec.Scale.Validate(s.net); err != nil {
			return err
		}
		s.scale = rec.Scale
		s.beAvailable = s.recomputeBEAvailable()
	default:
		return fmt.Errorf("unknown operation %q", rec.Op)
	}
	return s.applyBERates(rec.BERates)
}

// admitReserved appends a recorded GR placement, repeating the live
// arithmetic exactly: clone the pool, subtract each path in order at its
// recorded rate, swap the pointer.
func (s *Scheduler) admitReserved(pa *PlacedApp) {
	residual := s.beAvailable.Clone()
	for _, p := range pa.Paths {
		p.P.Subtract(residual, p.Rate)
	}
	s.gr = append(s.gr, pa)
	s.beAvailable = residual
}

// replayAdmit applies a recorded admission.
func (s *Scheduler) replayAdmit(st *AppState) error {
	pa, err := st.buildPlaced(s.net)
	if err != nil {
		return err
	}
	switch pa.App.QoS.Class {
	case GuaranteedRate:
		s.admitReserved(pa)
	case BestEffort:
		s.be = append(s.be, pa)
	default:
		return fmt.Errorf("recorded app %q has unknown class %v", pa.App.Name, pa.App.QoS.Class)
	}
	return nil
}

// replayRepair mirrors repair's structural half for both outcomes. A
// failed repair is state-visible — the app moves to the end of s.gr, the
// pool round-trips through release/reserve, the solver state is dropped —
// so it was journaled and must be replayed.
func (s *Scheduler) replayRepair(rec *Record) error {
	old := s.resident(rec.Name)
	if old == nil || old.App.QoS.Class != GuaranteedRate {
		return fmt.Errorf("recorded repair of unknown app %q", rec.Name)
	}
	s.unlist(old)
	if rec.Outcome == "repaired" {
		if rec.App == nil {
			return fmt.Errorf("repaired record for %q has no placement", rec.Name)
		}
		repaired, err := rec.App.buildPlacedOn(old.App, s.net)
		if err != nil {
			return err
		}
		s.admitReserved(repaired)
		return nil
	}
	// Failed repair: the live path restored the old placement at the end
	// of s.gr, re-reserved it in place, and dropped the warm solver.
	s.gr = append(s.gr, old)
	s.reserveGR(old)
	s.dropSolver()
	return nil
}

func (s *Scheduler) applyBERates(rates map[string][]float64) error {
	for _, pa := range s.be {
		r, ok := rates[pa.App.Name]
		if !ok {
			continue
		}
		if len(r) != len(pa.Paths) {
			return fmt.Errorf("recorded %d rates for %q, app has %d paths", len(r), pa.App.Name, len(pa.Paths))
		}
		for i := range pa.Paths {
			pa.Paths[i].Rate = r[i]
		}
	}
	return nil
}
