package core

import (
	"fmt"
	"math"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
)

// ElementScale maps network elements to capacity scale factors: 1 is the
// nominal capacity, 0.5 a half-degraded element, 0 a dead one. Elements
// absent from the map stay nominal.
//
// Resource fluctuation is the paper's declared future work ("Considering
// computing network resource fluctuation is our future work", §VI); this
// extension handles it without violating the paper's no-migration
// constraint: placements stay where they are, Best-Effort rates are
// re-solved on the degraded capacities, and Guaranteed-Rate reservations
// that no longer fit are surfaced for the operator to act on.
type ElementScale map[placement.Element]float64

// Validate checks that every key names an element of net and every factor
// is finite and non-negative. Every path that installs a scale — a live
// fluctuation, a replayed record, a restored snapshot, a router's global
// map — checks it here first, so a bad scale is an error, never an index
// out of range.
func (scale ElementScale) Validate(net *network.Network) error {
	for e, f := range scale {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("core: invalid capacity scale %v for element %d", f, e)
		}
		if int(e) < 0 || int(e) >= net.NumNCPs()+net.NumLinks() {
			return fmt.Errorf("core: unknown element %d in fluctuation", e)
		}
	}
	return nil
}

// FluctuationReport describes the effect of a capacity fluctuation.
type FluctuationReport struct {
	// ViolatedGR names the guaranteed-rate applications whose reserved
	// rates no longer fit on some degraded element.
	ViolatedGR []string
	// BERates maps best-effort application names to their re-solved
	// total rates under the degraded capacities.
	BERates map[string]float64
}

// ApplyFluctuation scales element capacities and re-evaluates the system:
// the scale persists (later submissions see the degraded network) until
// the next call. Passing nil (or an empty map) restores nominal capacity.
// The fluctuation is committed to the journal before returning; a
// restore (nil/empty scale) is a fluctuation like any other. Validation
// errors mutate nothing and are not journaled.
func (s *Scheduler) ApplyFluctuation(scale ElementScale) (*FluctuationReport, error) {
	if err := scale.Validate(s.net); err != nil {
		return nil, err
	}
	if len(scale) == 0 {
		// Normalize "restore to nominal" to nil so live state and its
		// journal round-trip agree byte-for-byte (JSON cannot tell an
		// empty map from nil after omitempty).
		scale = nil
	}
	sp := s.startOpSpan("core.fluctuation")
	sp.SetInt("elements", int64(len(scale)))
	s.opSpan = sp
	defer func() { s.opSpan = nil; sp.End() }()
	rep, err := s.applyFluctuation(scale)
	if s.commit == nil {
		return rep, err
	}
	rec := &Record{Op: OpFluctuation, Outcome: "ok", Scale: scale}
	if err != nil {
		// s.scale and the pool were already updated; only the BE re-solve
		// failed. The mutation is journaled with the error noted.
		rec.Outcome = "error"
		rec.Reason = err.Error()
	}
	if cerr := s.commitRecord(rec); cerr != nil {
		return rep, cerr
	}
	return rep, err
}

// applyFluctuation is ApplyFluctuation without the durability commit.
func (s *Scheduler) applyFluctuation(scale ElementScale) (*FluctuationReport, error) {
	s.scale = scale

	report := &FluctuationReport{BERates: map[string]float64{}}
	// Detect GR violations: subtract the GR reservations from the scaled
	// base without clamping and look for oversubscribed elements.
	over := s.oversubscribedByGR()
	for _, pa := range s.gr {
		if touchesAny(pa, over) {
			report.ViolatedGR = append(report.ViolatedGR, pa.App.Name)
		}
	}
	s.beAvailable = s.recomputeBEAvailable()
	if err := s.reallocateBE(); err != nil {
		return nil, err
	}
	for _, pa := range s.be {
		report.BERates[pa.App.Name] = pa.TotalRate()
	}
	if s.opSpan != nil && len(report.ViolatedGR) > 0 {
		s.opSpan.SetAny("violatedGR", report.ViolatedGR)
	}
	s.log.Info("fluctuation applied", "elements", len(scale), "violatedGR", report.ViolatedGR)
	return report, nil
}

// scaledBaseCapacities returns the network's base capacities with the
// current fluctuation applied.
func (s *Scheduler) scaledBaseCapacities() *network.Capacities {
	caps := s.net.BaseCapacities()
	for e, f := range s.scale {
		if int(e) < s.net.NumNCPs() {
			caps.ScaleNCP(network.NCPID(e), f)
		} else {
			caps.Link[int(e)-s.net.NumNCPs()] *= f
		}
	}
	return caps
}

// oversubscribedByGR returns the elements whose scaled capacity no longer
// covers the GR reservations.
func (s *Scheduler) oversubscribedByGR() map[placement.Element]bool {
	caps := s.scaledBaseCapacities()
	ncpDemand := make([]resource.Vector, s.net.NumNCPs())
	linkDemand := make([]float64, s.net.NumLinks())
	for _, pa := range s.gr {
		for _, path := range pa.Paths {
			for i, v := range path.P.LoadedNCPs() {
				if ncpDemand[v] == nil {
					ncpDemand[v] = resource.Vector{}
				}
				ncpDemand[v].AddScaled(path.P.NCPLoads()[i], path.Rate)
			}
			for i, l := range path.P.LoadedLinks() {
				linkDemand[l] += path.P.LinkLoads()[i] * path.Rate
			}
		}
	}
	const tol = 1 + 1e-9
	over := map[placement.Element]bool{}
	for v := 0; v < s.net.NumNCPs(); v++ {
		for k, d := range ncpDemand[v] {
			if d > caps.Get(network.NCPID(v), k)*tol {
				over[placement.NCPElement(network.NCPID(v))] = true
			}
		}
	}
	for l := 0; l < s.net.NumLinks(); l++ {
		if linkDemand[l] > caps.Link[l]*tol {
			over[placement.LinkElement(s.net, network.LinkID(l))] = true
		}
	}
	return over
}

func touchesAny(pa *PlacedApp, elems map[placement.Element]bool) bool {
	if len(elems) == 0 {
		return false
	}
	for _, path := range pa.Paths {
		for _, e := range path.P.UsedElements() {
			if elems[e] {
				return true
			}
		}
	}
	return false
}
