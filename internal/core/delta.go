package core

import "sparcle/internal/network"

// The BE pool is a function of the GR list: the scaled base capacities
// minus every GR reservation, subtracted in s.gr order
// (recomputeBEAvailable). An admission and a repair rollback append to
// s.gr, so subtracting their paths from the pool is that rebuild bit for
// bit; a release takes a reservation out of the list, so it recomputes.

// recomputeBEAvailable rebuilds the BE capacity pool from scratch: the
// (fluctuation-scaled) base capacities minus every GR reservation.
func (s *Scheduler) recomputeBEAvailable() *network.Capacities {
	caps := s.scaledBaseCapacities()
	for _, pa := range s.gr {
		for _, p := range pa.Paths {
			p.P.Subtract(caps, p.Rate)
		}
	}
	return caps
}

// releaseGR returns a departing GR application's reservation to the BE
// pool. It recomputes only the elements pa loaded, each from its scaled
// base capacity minus the remaining reservations in s.gr order, as
// recomputeBEAvailable writes it: every element is its own fold, so the
// bits are the full rebuild's. The caller must have already dropped pa
// from s.gr.
func (s *Scheduler) releaseGR(pa *PlacedApp) {
	pool, nNCP := s.beAvailable, s.net.NumNCPs()
	released := make([]bool, nNCP+s.net.NumLinks())
	for _, p := range pa.Paths {
		for _, v := range p.P.LoadedNCPs() {
			released[v] = true
			copy(pool.NCP(v), s.net.BaseNCP(v))
		}
		for _, l := range p.P.LoadedLinks() {
			released[nNCP+int(l)] = true
			pool.Link[l] = s.net.Link(l).Bandwidth
		}
	}
	for e, f := range s.scale {
		switch {
		case !released[e]:
		case int(e) < nNCP:
			pool.ScaleNCP(network.NCPID(e), f)
		default:
			pool.Link[int(e)-nNCP] *= f
		}
	}
	for _, g := range s.gr {
		for _, p := range g.Paths {
			for i, v := range p.P.LoadedNCPs() {
				if released[v] {
					pool.SubtractNCP(v, p.P.NCPLoads()[i], p.Rate)
				}
			}
			for i, l := range p.P.LoadedLinks() {
				if released[nNCP+int(l)] {
					pool.SubtractLink(l, p.P.LinkLoads()[i], p.Rate)
				}
			}
		}
	}
}

// reserveGR re-applies a restored GR application's reservation to the BE
// pool in place (repair rollback; fresh admissions work on a residual
// clone instead). The caller must have already appended the app to s.gr.
func (s *Scheduler) reserveGR(pa *PlacedApp) {
	for _, p := range pa.Paths {
		p.P.Subtract(s.beAvailable, p.Rate)
	}
}
