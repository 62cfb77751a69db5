package core

import (
	"fmt"
	"math"

	"sparcle/internal/network"
)

// deltaCapsCheck, when set (tests only), cross-checks every
// delta-maintained BE pool update against a full rebuild from base
// capacities and panics on divergence.
var deltaCapsCheck = false

// releaseGR returns a departing GR application's reservation to the BE
// pool: the sparse inverse of the Subtract applied at admission, visiting
// only the elements the app's paths actually load. The caller must have
// already dropped the app from s.gr.
//
// A pool clamped by fluctuation falls back to a full rebuild (some
// element's GR reservations exceed its scaled capacity, so Subtract's
// zero-clamp discarded the shortfall and an AddBack would over-credit
// it). The rebuild also refreshes the clamp state, since the departing
// app may have been the oversubscriber.
func (s *Scheduler) releaseGR(pa *PlacedApp) {
	if s.poolClamped {
		s.beAvailable = s.recomputeBEAvailable()
		s.poolClamped = len(s.oversubscribedByGR()) > 0
		return
	}
	for _, p := range pa.Paths {
		p.P.AddBack(s.beAvailable, p.Rate)
	}
	s.checkDeltaPool()
}

// reserveGR re-applies a restored GR application's reservation to the BE
// pool in place (repair rollback; fresh admissions work on a residual
// clone instead). The caller must have already put the app back in s.gr.
func (s *Scheduler) reserveGR(pa *PlacedApp) {
	if s.poolClamped {
		s.beAvailable = s.recomputeBEAvailable()
		s.poolClamped = len(s.oversubscribedByGR()) > 0
		return
	}
	for _, p := range pa.Paths {
		p.P.Subtract(s.beAvailable, p.Rate)
	}
	// Repair restores placements that may no longer fit (that is why they
	// were being repaired): Subtract then clamps at zero and the shortfall
	// is unrecoverable by delta add-backs, so flag the pool for a rebuild
	// on the next release. The pool value itself is still exact here —
	// clamped sequential subtraction equals the clamped rebuild.
	s.poolClamped = len(s.oversubscribedByGR()) > 0
	s.checkDeltaPool()
}

func (s *Scheduler) checkDeltaPool() {
	if !deltaCapsCheck {
		return
	}
	want := s.recomputeBEAvailable()
	if err := capsApproxEqual(s.beAvailable, want, 1e-6); err != nil {
		panic(fmt.Sprintf("core: delta-maintained BE pool diverged from rebuild: %v", err))
	}
}

// capsApproxEqual reports the first element where the two capacity sets
// differ by more than tol (relative, with an absolute floor for values
// near zero).
func capsApproxEqual(got, want *network.Capacities, tol float64) error {
	close := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	if len(got.NCP) != len(want.NCP) || len(got.Link) != len(want.Link) {
		return fmt.Errorf("shape mismatch: %d/%d NCPs, %d/%d links",
			len(got.NCP), len(want.NCP), len(got.Link), len(want.Link))
	}
	for v := range want.NCP {
		for k, w := range want.NCP[v] {
			if !close(got.NCP[v].Get(k), w) {
				return fmt.Errorf("NCP %d %s: got %v, want %v", v, k, got.NCP[v].Get(k), w)
			}
		}
		for k, g := range got.NCP[v] {
			if !close(g, want.NCP[v].Get(k)) {
				return fmt.Errorf("NCP %d %s: got %v, want %v", v, k, g, want.NCP[v].Get(k))
			}
		}
	}
	for l := range want.Link {
		if !close(got.Link[l], want.Link[l]) {
			return fmt.Errorf("link %d: got %v, want %v", l, got.Link[l], want.Link[l])
		}
	}
	return nil
}
