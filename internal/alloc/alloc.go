// Package alloc solves SPARCLE's resource allocation problem (4):
//
//	maximize   sum_i P_i log(x_i)   subject to   R X <= C
//
// the weighted proportional-fair rate allocation across the task assignment
// paths of all Best-Effort applications sharing the computing network. Each
// path is a flow whose per-unit load on every NCP resource and link forms
// one column of R; capacities C are whatever remains after Guaranteed-Rate
// reservations.
//
// The solver works on the dual (Kelly-style congestion pricing): at prices
// λ the utility-maximizing rate of flow f is w_f / Σ_j λ_j R_{jf}. The
// dual function is smooth and convex, so exact cyclic coordinate descent —
// for each constraint, move its price to where the constraint's demand
// equals capacity, or to zero if it is slack even there — converges to the
// optimum. A constraint's demand is convex and decreasing in its own
// price, so that root is found by a safeguarded Newton iteration that
// climbs to it monotonically (see solveRow). Most constraints sit at price
// zero, slack; a sweep skips one whose slack is certified — its demand at
// its last evaluation, times the most every congestion price could have
// fallen since, still below capacity — because its row update would leave
// it at zero. The skip changes no price, so the descent is bit-identical
// to one that visits every constraint. The descent converges only
// linearly, so after every sweep that has not met the tolerance the
// solver takes Newton steps on the whole block of priced constraints (a
// small dense system, see newton), unless that block has more
// constraints than there are flows; the sweeps remain the globally
// convergent method and decide when to stop. The final rates are scaled
// into the feasible region to absorb the last floating-point slack, so
// the returned rates always satisfy R X <= C.
//
// The package also implements the Theorem 3 capacity prediction (eq. (6)):
// before placing a new BE application, every element's capacity is scaled
// by the app's priority share against the priorities already placed there,
// which is what makes task assignment approximately arrival-order
// independent.
package alloc

import (
	"errors"

	"sparcle/internal/network"
	"sparcle/internal/placement"
)

// Flow is one task-assignment path participating in the allocation, with
// the priority weight of its application.
type Flow struct {
	Weight float64
	Path   *placement.Placement
}

// Options tunes the dual coordinate-descent solver. The zero value selects
// defaults suitable for the experiment scales in this repository.
type Options struct {
	// Cycles bounds the number of sweeps over the constraints (default
	// 300); each sweep moves every price to the root of its own
	// constraint, located to a hundredth of Tolerance. A constraint
	// certified slack at price zero is skipped: it would stay there. The
	// Newton steps between sweeps do not count against the bound.
	Cycles int
	// Tolerance is the relative price-change threshold that ends the
	// descent early (default 1e-12); a constraint whose demand is within
	// Tolerance of its capacity is left where it is.
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.Cycles <= 0 {
		o.Cycles = 300
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-12
	}
	return o
}

// ErrNoFlows is returned by Solve when called without flows.
var ErrNoFlows = errors.New("alloc: no flows")

// Stats describes one solver run for the telemetry layer.
type Stats struct {
	// Flows and Rows are the problem dimensions: flow count and binding
	// capacity constraints.
	Flows, Rows int
	// NNZ is the number of live constraint-matrix entries visited per
	// descent sweep (the sparse solve cost).
	NNZ int
	// Cycles is the number of coordinate-descent sweeps performed; the
	// Newton steps between them are counted in NewtonSteps.
	Cycles int
	// RowEvals is the number of row passes those cycles made to evaluate a
	// row's demand and slope: one for a row still at its root, a few for
	// a row whose price had to move, none for a row skipped as certified
	// slack. Newton steps make no row pass.
	RowEvals int
	// NewtonSteps is the number of Newton steps taken on the block of
	// priced rows between sweeps.
	NewtonSteps int
	// Converged reports whether the descent met the tolerance before
	// exhausting its cycle budget.
	Converged bool
	// Warm reports whether the run started from the previous solve's dual
	// prices instead of cold initialization.
	Warm bool
}

// SolveStats returns the weighted proportional-fair rates of the flows
// under the given capacities, with solver statistics (problem size,
// descent cycles, convergence) that cost nothing to collect. A flow whose
// path crosses a zero-capacity element receives rate 0; a flow with no
// load anywhere is rejected as unbounded. It is a thin cold wrapper over a
// throwaway Solver: the constraint rows are built sparse (CSR) from each
// flow's loaded elements and discarded after one dual descent. Callers on
// a churn path should hold a Solver instead and reuse its rows and prices
// across calls.
func SolveStats(caps *network.Capacities, flows []Flow, opt Options) ([]float64, Stats, error) {
	if len(flows) == 0 {
		return nil, Stats{}, ErrNoFlows
	}
	s := NewSolver(caps, opt)
	// A fresh Solver issues ids 0..len(flows)-1 in input order, so the
	// rates come back indexed like flows.
	if _, err := s.AddFlows(flows); err != nil {
		return nil, Stats{Flows: len(flows)}, err
	}
	return s.Solve(nil)
}
