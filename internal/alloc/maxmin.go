package alloc

import (
	"errors"
	"fmt"
	"math"

	"sparcle/internal/network"
)

// SolveMaxMin computes the weighted max-min fair rates of the flows under
// the given capacities by progressive filling: every unfrozen flow grows
// proportionally to its weight until some element saturates, the flows
// crossing that element freeze at their current rates, and filling
// continues with the rest. The result is the unique allocation in which no
// flow's (weight-normalized) rate can grow without shrinking an already
// smaller one.
//
// Max-min fairness is the classic alternative to the paper's proportional
// fairness (problem (4)): it maximizes the worst normalized rate at the
// cost of total utility. The scheduler exposes it through the
// WithMaxMinFairness option; the fairness-policy ablation benchmark
// quantifies the trade.
// row is a dense constraint row used by the progressive-filling loop,
// which sweeps every (row, flow) pair anyway and so gains nothing from
// sparsity.
type row struct {
	cap  float64
	coef []float64
}

// buildRows materializes one dense constraint row per positive-capacity
// element (and resource kind) loaded by at least one flow, built by
// visiting each flow's loaded elements once. boundable[f] reports whether
// flow f can receive a positive rate (false when it loads a zero-capacity
// element); unboundable flows have their coefficients zeroed so they
// contribute nothing downstream.
func buildRows(caps *network.Capacities, flows []Flow) ([]row, []bool, error) {
	s := NewSolver(caps, Options{})
	if _, err := s.AddFlows(flows); err != nil {
		return nil, nil, err
	}
	// Flow slot i is flow i for a freshly built solver.
	boundable := make([]bool, len(flows))
	for i := range boundable {
		boundable[i] = true
	}
	for j := range s.rows {
		if s.capOf(s.rows[j].key) <= 0 {
			for _, e := range s.rows[j].ents {
				boundable[e.slot] = false
			}
		}
	}
	var rows []row
	for j := range s.rows {
		r := &s.rows[j]
		c := s.capOf(r.key)
		if c <= 0 {
			continue
		}
		d := row{cap: c, coef: make([]float64, len(flows))}
		for _, e := range r.ents {
			if boundable[e.slot] {
				d.coef[e.slot] = e.coef
			}
		}
		rows = append(rows, d)
	}
	return rows, boundable, nil
}

func SolveMaxMin(caps *network.Capacities, flows []Flow) ([]float64, error) {
	if len(flows) == 0 {
		return nil, ErrNoFlows
	}
	for i, f := range flows {
		if f.Weight <= 0 || math.IsNaN(f.Weight) {
			return nil, fmt.Errorf("alloc: flow %d has invalid weight %v", i, f.Weight)
		}
	}
	rows, boundable, err := buildRows(caps, flows)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("alloc: no capacity constraints bind any flow")
	}

	x := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	for f := range flows {
		if !boundable[f] {
			frozen[f] = true // starved by a zero-capacity element: stays 0
		}
	}
	used := make([]float64, len(rows))

	for {
		// Growth rate of each row's demand if all unfrozen flows grow as
		// x_f += w_f * dt.
		limiting := -1
		step := math.Inf(1)
		for j, r := range rows {
			growth := 0.0
			for f, coef := range r.coef {
				if !frozen[f] && coef > 0 {
					growth += coef * flows[f].Weight
				}
			}
			if growth <= 0 {
				continue
			}
			if dt := (r.cap - used[j]) / growth; dt < step {
				step = dt
				limiting = j
			}
		}
		if limiting < 0 {
			// No row constrains any remaining unfrozen flow. If such a
			// flow exists it would be unbounded; buildRows guarantees
			// every flow has load on some row, so all must be frozen.
			break
		}
		if step < 0 {
			step = 0
		}
		// Grow everyone by the step and update row usage.
		for f := range flows {
			if !frozen[f] {
				x[f] += flows[f].Weight * step
			}
		}
		for j, r := range rows {
			demand := 0.0
			for f, coef := range r.coef {
				demand += coef * x[f]
			}
			used[j] = demand
		}
		// Freeze the flows crossing any saturated row.
		progressed := false
		for j, r := range rows {
			if used[j] < r.cap-1e-12*math.Max(1, r.cap) {
				continue
			}
			for f, coef := range r.coef {
				if coef > 0 && !frozen[f] {
					frozen[f] = true
					progressed = true
				}
			}
		}
		if !progressed {
			// step == 0 on an already saturated row with all its flows
			// frozen; nothing left to do.
			allFrozen := true
			for f := range flows {
				if !frozen[f] {
					allFrozen = false
				}
			}
			if allFrozen {
				break
			}
			return nil, errors.New("alloc: max-min filling stalled")
		}
		done := true
		for f := range flows {
			if !frozen[f] {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return x, nil
}
