package core

import (
	"errors"
	"fmt"
)

// Remove withdraws an admitted application by name, releasing its
// resources: a departing GR application returns its reservation to the BE
// pool, and the Best-Effort allocation is re-solved either way. Removing
// an unknown name wraps ErrNotFound.
//
// A successful removal is committed to the journal before Remove returns;
// an unknown name had no effect and is not journaled.
func (s *Scheduler) Remove(name string) error {
	sp := s.startOpSpan("core.remove")
	sp.SetAttr("app", name)
	s.opSpan = sp
	defer func() { s.opSpan = nil; sp.End() }()
	err := s.remove(name)
	if errors.Is(err, ErrNotFound) {
		return err
	}
	if err == nil {
		s.log.Info("application withdrawn", "app", name)
	}
	if s.commit == nil {
		return err
	}
	rec := &Record{Op: OpRemove, Outcome: "ok", Name: name}
	if err != nil {
		// The app is gone but the re-allocation failed: the structural
		// change is journaled anyway (it happened), with the error noted.
		rec.Outcome = "error"
		rec.Reason = err.Error()
	}
	if cerr := s.commitRecord(rec); cerr != nil {
		return cerr
	}
	return err
}

// remove is Remove without telemetry or durability.
func (s *Scheduler) remove(name string) error {
	if !s.withdraw(name) {
		return fmt.Errorf("core: no admitted application named %q: %w", name, ErrNotFound)
	}
	return s.reallocateBE()
}

// withdraw is the structural half of a removal, shared by the live path
// and replay: it takes the named resident off its list (returning a GR
// reservation to the BE pool). It reports whether the name was resident.
func (s *Scheduler) withdraw(name string) bool {
	pa := s.resident(name)
	if pa == nil {
		return false
	}
	s.unlist(pa)
	return true
}

// unlist splices pa out of its class's resident list; a GR application's
// reservation goes back to the BE pool, and a BE application's flows leave
// the solver. Rollbacks undo the newest admissions, so the search runs
// from the end.
func (s *Scheduler) unlist(pa *PlacedApp) {
	list := &s.be
	if pa.App.QoS.Class == GuaranteedRate {
		list = &s.gr
	} else if pa.flows != nil {
		s.beSolver.RemoveFlows(pa.flows)
		pa.flows = nil
	}
	for i := len(*list) - 1; i >= 0; i-- {
		if (*list)[i] == pa {
			*list = append((*list)[:i], (*list)[i+1:]...)
			if list == &s.gr {
				s.releaseGR(pa)
			}
			return
		}
	}
}
