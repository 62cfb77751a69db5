package alloc

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestNewtonMatchesDescent is the differential test of the Newton steps:
// on the scenarios of TestSlackSkipMatchesReference, a solve with them
// must agree with the pure descent at the same cycle budget (see
// newtonCheck), and warm churn must take at most a fifth of the descent's
// sweeps, at most 3 per solve at K=256.
func TestNewtonMatchesDescent(t *testing.T) { twinScenarios(t, true) }

// TestNewtonStepDropsDependentRows solves a Newton system whose rows are
// linearly dependent, as on a block with fewer independent flow columns
// than rows: the second row is twice the first and the fourth the sum of
// the first and third. The step must leave each dependent row's price
// alone and still solve the system, whose right-hand side lies in H's
// range as a residual does.
func TestNewtonStepDropsDependentRows(t *testing.T) {
	a := [][]float64{{0.3, 1.7, 0, 0.9}, {0.6, 3.4, 0, 1.8}, {0, 0.7, 2.3, 0.1}, {0.3, 2.4, 2.3, 1.0}}
	w := []float64{1.1, 0.4, 2.9, 0.7} // w_f/d_f², one per column
	y := []float64{0.8, -0.3, 0.5, 1.2}
	m := len(a)
	b := &block{rows: make([]int32, m), h: make([]float64, m*m), g: make([]float64, m)}
	for i := range a {
		for j := range a {
			for f := range w {
				b.h[i*m+j] += a[i][f] * w[f] * a[j][f]
			}
		}
	}
	want := make([]float64, m)
	for i := range a {
		for j := range a {
			want[i] += b.h[i*m+j] * y[j]
		}
	}
	copy(b.g, want)
	h := slices.Clone(b.h)
	b.step()
	if b.g[1] != 0 || b.g[3] != 0 {
		t.Fatalf("step %v moves a dependent row", b.g)
	}
	for i := range a {
		got := 0.0
		for j := range a {
			got += h[i*m+j] * b.g[j]
		}
		if math.Abs(got-want[i]) > 1e-9*math.Abs(want[i]) {
			t.Fatalf("row %d: H·Δ = %v, want %v (step %v)", i, got, want[i], b.g)
		}
	}
}

// descentSolve is Solver.Solve as it was before Newton steps, kept
// verbatim as the differential oracle of TestNewtonMatchesDescent.
func descentSolve(s *Solver, dst []float64) ([]float64, Stats, error) {
	stats := Stats{Flows: s.live, Warm: s.solved}
	if s.live == 0 {
		return nil, stats, ErrNoFlows
	}
	n := len(s.flows)
	s.denom = resize(s.denom, n)
	s.x = resize(s.x, n)
	if cap(s.active) < n {
		s.active = make([]bool, n)
	}
	active, denom, x := s.active[:n], s.denom, s.x
	for i := range s.flows {
		active[i] = s.flows[i].alive
	}
	// Pass 1: read capacities; zero-capacity elements force their flows'
	// rates to zero (they cannot be bounded away from it).
	rows := s.pkRows[:0]
	for j := range s.rows {
		r := &s.rows[j]
		if r.liveNNZ() == 0 {
			continue
		}
		if c := s.capOf(r.key); c > 0 {
			rows = append(rows, packedRow{row: int32(j), cap: c})
			continue
		}
		for _, e := range r.ents {
			if e.slot >= 0 {
				active[e.slot] = false
			}
		}
	}
	stats.Rows = len(rows)
	// Pass 2: pack the entries the descent will touch. A row binding only
	// zeroed flows stays in the row count but needs no price; with every
	// flow zeroed nothing is priced and all rates come out zero.
	pk, priced := s.pk[:0], rows[:0]
	for _, pr := range rows {
		pr.off = int32(len(pk))
		for _, e := range s.rows[pr.row].ents {
			if e.slot >= 0 && active[e.slot] {
				pk = append(pk, e)
			}
		}
		if pr.end = int32(len(pk)); pr.end > pr.off {
			priced = append(priced, pr)
		}
	}
	s.pk, s.pkRows, rows = pk, rows, priced
	stats.NNZ = len(pk)

	// descend (re)initializes never-priced rows at the single-constraint
	// optimum scale — previously priced rows keep their price, which is the
	// warm start — rebuilds the denominators in O(nnz), and runs the cyclic
	// coordinate descent until the tolerance or cycle budget is hit.
	//
	// Every row carries a slack certificate: the demand D its last
	// evaluation found at its old price and the growth factor G₀ just
	// before that evaluation. G multiplies, on every price drop — the
	// row's own included — by the largest old/new ratio of the
	// denominators the drop lowered, so none of the row's denominators has
	// fallen by more than G/G₀ since and its demand is at most D·G/G₀. A
	// row at price 0 whose bound stays below capacity, less a 1e-9 margin
	// for rounding, is one solveRow would return unchanged at 0, so it is
	// skipped.
	descend := func() {
		// denom[f] = Σ_j λ_j R_{jf}, maintained incrementally as prices
		// move.
		clear(denom)
		growth := 1.0
		for i := range rows {
			pr := &rows[i]
			pr.slack = math.Inf(1)
			r, ents := &s.rows[pr.row], pk[pr.off:pr.end]
			if math.IsNaN(r.price) {
				wSum := 0.0
				for _, e := range ents {
					wSum += s.flows[e.slot].weight
				}
				r.price = wSum / pr.cap
			}
			for _, e := range ents {
				denom[e.slot] += r.price * e.coef
			}
		}

		for cycle := 0; cycle < s.opt.Cycles; cycle++ {
			stats.Cycles++
			maxRel := 0.0
			for i := range rows {
				pr := &rows[i]
				r, ents := &s.rows[pr.row], pk[pr.off:pr.end]
				if r.price == 0 && pr.slack*(growth/pr.grown) <= pr.cap*(1-1e-9) {
					continue
				}
				lambda, evals, demand := solveRow(ents, denom, r.price, pr.cap, s.opt.Tolerance)
				stats.RowEvals += evals
				pr.slack, pr.grown = demand, growth
				if delta := lambda - r.price; delta != 0 {
					maxRel = math.Max(maxRel, math.Abs(delta)/math.Max(lambda, r.price))
					// up/down is the largest old/new denominator ratio (1
					// unless the price fell), found without a division per
					// entry; a denominator no longer positive makes it +Inf.
					up, down := 1.0, 1.0
					for _, e := range ents {
						old := denom[e.slot]
						d := old + delta*e.coef
						denom[e.slot] = d
						if d <= 0 {
							down = 0
						} else if old*down > up*d {
							up, down = old, d
						}
					}
					growth *= up / down
					r.price = lambda
				}
			}
			if maxRel < s.opt.Tolerance {
				stats.Converged = true
				return
			}
		}
	}

	descend()
	if !stats.Converged && stats.Warm {
		// The stale prices led the descent into a bad valley; restart this
		// same solve from the cold initialization, which is what a cold
		// Solve would have done all along.
		for _, pr := range rows {
			s.rows[pr.row].price = math.NaN()
		}
		stats.Warm = false
		descend()
	}

	for i := range s.flows {
		if !s.flows[i].alive {
			continue
		}
		if !active[i] {
			x[i] = 0
			continue
		}
		if !(denom[i] > 0) {
			s.invalidate()
			return nil, stats, fmt.Errorf("alloc: flow %d has zero congestion price (unbounded)", i)
		}
		x[i] = s.flows[i].weight / denom[i]
	}
	// Absorb residual floating-point slack: uniform scaling by the worst
	// relative violation keeps the result exactly feasible.
	scale := 1.0
	for _, pr := range rows {
		demand := 0.0
		for _, e := range pk[pr.off:pr.end] {
			demand += e.coef * x[e.slot]
		}
		if demand > pr.cap {
			scale = math.Min(scale, pr.cap/demand)
		}
	}
	dst = resize(dst, n)
	for i := range s.flows {
		dst[i] = 0
		if s.flows[i].alive {
			dst[i] = x[i] * scale
		}
	}
	s.solved = true
	return dst, stats, nil
}
