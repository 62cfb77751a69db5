package core

import "fmt"

// Remove withdraws an admitted application by name, releasing its
// resources: a departing GR application returns its reservation to the BE
// pool. The Best-Effort rates are left to their next reader (see settle),
// so a removal and the admission after it share one solve. Removing an
// unknown name wraps ErrNotFound.
//
// A successful removal is committed to the journal before Remove returns;
// its record stamps the settled rates. An unknown name had no effect and
// is not journaled.
func (s *Scheduler) Remove(name string) error {
	sp := s.startOpSpan("core.remove")
	sp.SetAttr("app", name)
	s.opSpan = sp
	defer func() { s.opSpan = nil; sp.End() }()
	if !s.withdraw(name) {
		return fmt.Errorf("core: no admitted application named %q: %w", name, ErrNotFound)
	}
	s.unsolved++
	s.log.Info("application withdrawn", "app", name)
	return s.commitRecord(&Record{Op: OpRemove, Outcome: "ok", Name: name})
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
