package core

import (
	"errors"
	"fmt"
	"time"
)

// Repair re-places a Guaranteed-Rate application whose reservation was
// broken by a capacity fluctuation (see ApplyFluctuation): the old task
// assignment paths are released and fresh paths are sought on the current
// (possibly degraded) network until the application's min-rate
// availability target holds again.
//
// The paper's no-migration constraint exists to avoid task migration costs
// for *working* applications; once a guarantee is already violated,
// re-placing is the reasonable operator action, so Repair is the one
// operation in this package that moves tasks. If no satisfying placement
// exists the original (violated) placement is restored and the error wraps
// ErrRejected, leaving the operator to decide between degraded service and
// removal.
// Both outcomes are journaled: a failed repair is state-visible too (the
// restored app moves to the end of the GR list, the capacity pool
// round-trips through release/reserve, and the warm solver is dropped).
// An unknown name had no effect and is not journaled.
func (s *Scheduler) Repair(name string) (*PlacedApp, error) {
	sp := s.startOpSpan("core.repair")
	sp.SetAttr("app", name)
	s.opSpan = sp
	defer func() { s.opSpan = nil; sp.End() }()
	start := time.Now()
	pa, err := s.repair(name)
	if errors.Is(err, ErrNotFound) {
		return pa, err
	}
	outcome := "repaired"
	if err != nil {
		outcome = "failed"
	}
	if sp != nil {
		sp.SetAttr("outcome", outcome)
		if err != nil {
			sp.SetAttr("reason", err.Error())
		} else {
			sp.SetFloat("rate", pa.TotalRate())
		}
	}
	if s.logging() {
		if err != nil {
			s.log.Warn("repair failed", "app", name, "err", err)
		} else {
			s.log.Info("application repaired", "app", name, "rate", pa.TotalRate(), "seconds", time.Since(start).Seconds())
		}
	}
	if s.commit == nil {
		return pa, err
	}
	rec := &Record{Op: OpRepair, Outcome: outcome, Name: name}
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

// repair is Repair without its span, log lines or record.
func (s *Scheduler) repair(name string) (*PlacedApp, error) {
	old := s.resident(name)
	if old == nil || old.App.QoS.Class != GuaranteedRate {
		return nil, fmt.Errorf("core: no admitted guaranteed-rate application named %q: %w", name, ErrNotFound)
	}
	// Release the old reservation.
	s.unlist(old)

	pool := s.beAvailable
	repaired, err := s.submitGR(old.App)
	if err == nil {
		// The new reservation shrinks the BE pool: re-solve. A solver error
		// withdraws the repaired app; submitGR reserved on a clone, so
		// restoring the pool object is exact.
		if err = s.reallocateBE(); err != nil {
			s.gr, s.beAvailable = s.gr[:len(s.gr)-1], pool
			err = fmt.Errorf("core: GR app %q starves BE allocation: %w: %w", old.App.Name, ErrRejected, err)
		}
	}
	if err != nil {
		// Restore the previous (violated) placement so the operator
		// keeps whatever service remains. The failed attempt released and
		// re-reserved capacity around the warm solver's back, so its
		// incremental state can no longer be trusted to describe the
		// restored pool: drop it and solve cold. Keeping a stale warm
		// solver here would let a later fluctuation warm-start from
		// constraint rows that never matched the rolled-back capacities.
		s.gr = append(s.gr, old)
		s.reserveGR(old)
		s.dropSolver()
		if reallocErr := s.reallocateBE(); reallocErr != nil {
			return nil, fmt.Errorf("core: repair rollback failed: %w", reallocErr)
		}
		return nil, fmt.Errorf("core: repair of %q failed: %w", name, err)
	}
	return repaired, nil
}
