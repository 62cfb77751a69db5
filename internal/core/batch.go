package core

import (
	"errors"
	"fmt"
	"time"

	"sparcle/internal/network"
	"sparcle/internal/obs"
)

// BatchResult is one application's verdict from SubmitBatch.
type BatchResult struct {
	Name string
	// App is the placed application, nil when rejected.
	App *PlacedApp
	// Err is the per-app admission error (wrapping ErrRejected), nil when
	// admitted.
	Err error
}

// SubmitBatch admits K applications as one operation: each is placed
// sequentially through the normal admission pipeline (so later apps see
// earlier apps' reservations), but the Best-Effort allocation is
// reconciled once at the end — a single solver AddFlows insertion and a
// single solve, instead of K of each.
//
// Per-app rejections are reported in the results and do not fail the
// batch. If the final allocation solve fails, every admission in the
// batch is rolled back and the batch-level error is returned: the
// scheduler never keeps a half-allocated batch. The whole outcome is
// journaled as ONE record, so recovery cannot observe a half-admitted
// batch either.
func (s *Scheduler) SubmitBatch(apps []App) ([]BatchResult, error) {
	if s.batching {
		return nil, errors.New("core: nested SubmitBatch")
	}
	sp := s.startOpSpan("core.batch")
	sp.SetInt("apps", int64(len(apps)))
	s.opSpan = sp
	defer func() { s.opSpan = nil; sp.End() }()
	results := make([]BatchResult, len(apps))
	mark := batchMark{gr: len(s.gr), be: len(s.be), pool: s.beAvailable}
	admitted := false
	s.batching = true
	for i, app := range apps {
		// Each app's pipeline stages nest under its own per-app span.
		asp := sp.Child("batch.submit")
		asp.SetAttr("app", app.Name)
		s.opSpan = asp
		start := time.Now()
		pa, err := s.submit(app)
		if s.metrics != nil {
			s.metrics.Histogram(metricPlacementSeconds, nil, obs.L("class", app.QoS.Class.String())).Observe(time.Since(start).Seconds())
		}
		s.opSpan = sp
		recordVerdict(asp, app, pa, err)
		asp.End()
		results[i] = BatchResult{Name: app.Name, App: pa, Err: err}
		admitted = admitted || err == nil
	}
	s.batching = false

	// A batch that admitted nothing left the resident set as it was, so
	// the last solve's rates stand. Otherwise solve, then evict the BE apps
	// the solve left at zero rate (they are rejected) and solve again,
	// until a pass evicts nothing. Eviction frees capacity, which can only
	// raise the others' rates, but the check repeats anyway.
	var batchErr error
	for admitted {
		if err := s.reallocateBE(); err != nil {
			batchErr = s.failBatch(results, mark, err)
			break
		}
		if !s.evictZeroRate(results) {
			break
		}
	}
	s.logBatch(apps, results)
	if s.commit == nil {
		return results, batchErr
	}

	rec := &Record{Op: OpBatch, Outcome: "ok"}
	if batchErr != nil {
		rec.Outcome = "error"
		rec.Reason = batchErr.Error()
	}
	for i := range results {
		entry := BatchRecordEntry{Name: results[i].Name, Outcome: SubmitOutcome(results[i].Err)}
		if results[i].Err != nil {
			entry.Reason = results[i].Err.Error()
		} else {
			st, err := exportApp(results[i].App)
			if err != nil {
				return results, fmt.Errorf("%w: %v", ErrDurability, err)
			}
			entry.App = &st
		}
		rec.Batch = append(rec.Batch, entry)
	}
	if cerr := s.commitRecord(rec); cerr != nil {
		return results, cerr
	}
	return results, batchErr
}

// batchMark is the state a batch started from: the resident-list lengths
// and the BE pool object. Placement appends to the lists and swaps the
// pool for a reduced clone, and a zero-rate eviction removes only the
// batch's own apps, so restoring the mark undoes the batch exactly.
type batchMark struct {
	gr, be int
	pool   *network.Capacities
}

// failBatch rolls the whole batch back and marks every admitted entry
// rejected, wrapping the allocation error that failed the batch.
func (s *Scheduler) failBatch(results []BatchResult, mark batchMark, cause error) error {
	s.gr, s.be, s.beAvailable = s.gr[:mark.gr], s.be[:mark.be], mark.pool
	// Best effort: the rollback solve re-rates the survivors. If it fails
	// the pool is still correct; rates are stale until the next solve.
	_ = s.reallocateBE()
	for i := range results {
		if results[i].Err == nil {
			results[i].App = nil
			results[i].Err = fmt.Errorf("core: %w: batch allocation failed: %w", ErrRejected, cause)
			s.recordOverturn(results[i])
		}
	}
	return fmt.Errorf("core: batch allocation failed, batch rolled back: %w", cause)
}

// recordOverturn records, on the batch span, a verdict the batch's end
// reversed after the app's batch.submit span recorded it admitted.
func (s *Scheduler) recordOverturn(r BatchResult) {
	if s.opSpan != nil {
		s.opSpan.Event("admission", map[string]any{"app": r.Name, "outcome": SubmitOutcome(r.Err), "reason": r.Err.Error()})
	}
}

// evictZeroRate withdraws batch BE admissions whose solved rate is zero,
// marking them rejected, and reports whether any were evicted.
func (s *Scheduler) evictZeroRate(results []BatchResult) bool {
	evicted := false
	for i := range results {
		pa := results[i].App
		if pa == nil || results[i].Err != nil || pa.App.QoS.Class != BestEffort || pa.TotalRate() > 0 {
			continue
		}
		s.unlist(pa)
		results[i].App = nil
		results[i].Err = fmt.Errorf("core: BE app %q: %w: allocated rate is zero", pa.App.Name, ErrRejected)
		s.recordOverturn(results[i])
		evicted = true
	}
	return evicted
}

// logBatch logs each verdict of a finished batch.
func (s *Scheduler) logBatch(apps []App, results []BatchResult) {
	if !s.logging() {
		return
	}
	for i := range results {
		class := apps[i].QoS.Class.String()
		outcome := SubmitOutcome(results[i].Err)
		if results[i].Err != nil {
			s.log.Warn("admission refused", "app", results[i].Name, "class", class, "outcome", outcome, "err", results[i].Err)
		} else {
			s.log.Info("application admitted", "app", results[i].Name, "class", class,
				"paths", len(results[i].App.Paths), "rate", results[i].App.TotalRate())
		}
	}
}
