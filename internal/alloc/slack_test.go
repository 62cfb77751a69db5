package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/resource"
)

// twin feeds one operation stream to two Solvers with the same Options:
// got runs Solve; ref runs referenceSolve, the descent before slack
// certificates, or with newton set descentSolve, the descent before Newton
// steps. Both read the same capacities, so in-place capacity edits reach
// both.
type twin struct {
	t        *testing.T
	newton   bool
	got, ref *Solver
	dg, dr   []float64
	cold     int    // solves that did not start warm
	solves   int    // solves run
	evals    [2]int // RowEvals summed over got and ref
	cycles   [2]int // Cycles summed over got and ref
	first    int    // Rows summed: the passes a first sweep cannot skip
}

func newTwin(t *testing.T, newton bool, caps *network.Capacities, opt Options) *twin {
	return &twin{t: t, newton: newton, got: NewSolver(caps, opt), ref: NewSolver(caps, opt)}
}

func (w *twin) add(flows ...Flow) []FlowID {
	w.t.Helper()
	ids, err := w.got.AddFlows(flows)
	if err != nil {
		w.t.Fatal(err)
	}
	if ref, err := w.ref.AddFlows(flows); err != nil || !slices.Equal(ref, ids) {
		w.t.Fatalf("reference AddFlows: ids %v vs %v, err %v", ref, ids, err)
	}
	return ids
}

func (w *twin) remove(ids ...FlowID) {
	w.got.RemoveFlows(ids)
	w.ref.RemoveFlows(ids)
}

func (w *twin) setCaps(caps *network.Capacities) {
	w.got.SetCapacities(caps)
	w.ref.SetCapacities(caps)
}

func (w *twin) invalidate() {
	w.got.invalidate()
	w.ref.invalidate()
}

// solve runs both Solvers. Against referenceSolve it requires
// bit-identical rates, equal Stats apart from RowEvals, and no more row
// passes than the reference made; against descentSolve, see newtonCheck.
func (w *twin) solve(label string) Stats {
	w.t.Helper()
	var gs, rs Stats
	var gerr, rerr error
	w.dg, gs, gerr = w.got.Solve(w.dg)
	if w.newton {
		w.dr, rs, rerr = descentSolve(w.ref, w.dr)
	} else {
		w.dr, rs, rerr = referenceSolve(w.ref, w.dr)
	}
	if (gerr == nil) != (rerr == nil) {
		w.t.Fatalf("%s: error %v, reference %v", label, gerr, rerr)
	}
	w.solves++
	w.cycles[0] += gs.Cycles
	w.cycles[1] += rs.Cycles
	if !gs.Warm {
		w.cold++
	}
	if w.newton {
		w.newtonCheck(label, gs, rs)
		return gs
	}
	if gs.RowEvals > rs.RowEvals {
		w.t.Fatalf("%s: %d row passes, reference %d", label, gs.RowEvals, rs.RowEvals)
	}
	w.evals[0] += gs.RowEvals
	w.evals[1] += rs.RowEvals
	w.first += gs.Rows
	gs.RowEvals = rs.RowEvals
	if gs != rs {
		w.t.Fatalf("%s: stats %+v, reference %+v", label, gs, rs)
	}
	if len(w.dg) != len(w.dr) {
		w.t.Fatalf("%s: %d rates, reference %d", label, len(w.dg), len(w.dr))
	}
	for id, x := range w.dr {
		if y := w.dg[id]; math.Float64bits(y) != math.Float64bits(x) {
			w.t.Fatalf("%s: flow %v rate %v, reference %v", label, id, y, x)
		}
	}
	return gs
}

// newtonCheck holds a Newton solve to the pure descent: converged whenever
// the descent converged, in no more sweeps, meeting the KKT conditions,
// and within 1e-9 relative of the descent's rates unless the descent's own
// answer fails them. It does on collapsing prices, where the running
// denominator sums that Newton recomputes drift by up to 1e-6.
func (w *twin) newtonCheck(label string, gs, rs Stats) {
	w.t.Helper()
	if rs.Converged && !gs.Converged {
		w.t.Fatalf("%s: not converged: %+v, reference %+v", label, gs, rs)
	}
	if gs.Cycles > rs.Cycles {
		w.t.Fatalf("%s: %d cycles, reference %d", label, gs.Cycles, rs.Cycles)
	}
	if !rs.Converged {
		return
	}
	if err := kktError(w.got, w.dg); err != nil {
		w.t.Fatalf("%s: %v", label, err)
	}
	if kktError(w.ref, w.dr) != nil {
		return
	}
	if len(w.dg) != len(w.dr) {
		w.t.Fatalf("%s: %d rates, reference %d", label, len(w.dg), len(w.dr))
	}
	for id, x := range w.dr {
		if y := w.dg[id]; math.Abs(y-x) > 1e-9*math.Max(x, y) {
			w.t.Fatalf("%s: flow %v rate %v, reference %v", label, id, y, x)
		}
	}
}

// setCap writes a row's capacity into caps.
func setCap(s *Solver, caps *network.Capacities, key rowKey, c float64) {
	if key.elem < s.numNCPs {
		*ncpCap(caps, key.elem, key.kind) = c
		return
	}
	caps.Link[key.elem-s.numNCPs] = c
}

// TestSlackSkipMatchesReference is the differential test of the slack
// certificates: skipping a certified row must leave every price, rate and
// cycle count exactly where the uncertified descent puts them, on warm
// churn, near-tight slack rows, collapsing prices, zeroed flows, capacity
// swaps and cold restarts alike.
func TestSlackSkipMatchesReference(t *testing.T) { twinScenarios(t, false) }

// twinScenarios replays the differential scenarios through twins of the
// given kind.
func twinScenarios(t *testing.T, newton bool) {
	churn := func(t *testing.T, k int, seed int64, opt Options, perturb func(w *twin, caps *network.Capacities, step int)) *twin {
		rng := rand.New(rand.NewSource(seed))
		net, link := mesh16(t)
		caps := net.BaseCapacities()
		w := newTwin(t, newton, caps, opt)
		pool := make([]Flow, 2*k+64)
		for i := range pool {
			pool[i] = meshPipeline(t, rng, net, link)
		}
		live := w.add(pool[:k]...)
		w.solve("initial")
		for step := 0; step < 100; step++ {
			w.remove(live[0])
			live = append(live[1:], w.add(pool[(k+step)%len(pool)])...)
			if perturb != nil {
				perturb(w, caps, step)
			}
			w.solve(fmt.Sprintf("step %d", step))
		}
		return w
	}
	for _, k := range []int{16, 64, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("churn/K=%d/seed=%d", k, seed), func(t *testing.T) {
				w := churn(t, k, seed, Options{}, nil)
				if newton {
					if 5*w.cycles[0] > w.cycles[1] || k == 256 && w.cycles[0] > 3*w.solves {
						t.Errorf("%d cycles in %d solves, the descent %d", w.cycles[0], w.solves, w.cycles[1])
					}
					return
				}
				// A descent's first sweep has no certificates yet; of the
				// passes after it, certificates must skip half.
				if got, ref := w.evals[0]-w.first, w.evals[1]-w.first; k == 256 && 2*got > ref {
					t.Errorf("%d row passes after first sweeps against the reference's %d: certificates skip too little", got, ref)
				}
			})
		}
	}
	// Rows get their capacity moved to between 1e-9 and 1e-6 above their
	// demand at price 0: every slack row, and on odd steps half the priced
	// rows too, whose prices then collapse to 0 while the rows stay within
	// a hair of their capacity — certificates must not skip a row that a
	// later price drop pushes over.
	t.Run("near-tight slack rows", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		churn(t, 64, 5, Options{}, func(w *twin, caps *network.Capacities, step int) {
			s := w.got
			for j := range s.rows {
				r := &s.rows[j]
				if s.capOf(r.key) <= 0 || r.price != 0 && (step%2 == 0 || rng.Intn(2) == 0) {
					continue
				}
				demand := 0.0
				for _, e := range r.ents {
					if e.slot >= 0 && s.active[e.slot] {
						demand += e.cw / (s.denom[e.slot] - r.price*e.coef)
					}
				}
				if demand > 0 && !math.IsInf(demand, 1) {
					setCap(s, caps, r.key, demand*(1+math.Pow(10, -9+3*rng.Float64())))
				}
			}
		})
	})
	// Two links, flow 0 across both and flow 1 on the second only, both
	// links priced at 1/2. Raising the first link to a hair above its
	// price-0 demand collapses its price; the second link's price then
	// falls, and the first must come back although its demand at the
	// collapsing pass was half what it is at price 0: the collapse's own
	// drop counts toward the growth factor. Then, with the first link
	// slack at price 0 a hair above its demand, a 1e-7 rise of the second
	// link's capacity lowers its price just enough to push the first over.
	t.Run("collapse under a falling neighbour", func(t *testing.T) {
		net, links := lineN(t, 3, 100, 1)
		caps := net.BaseCapacities()
		w := newTwin(t, newton, caps, Options{})
		w.add(segmentFlow(t, net, links, 0, 1, 2, 1, 1, 1), segmentFlow(t, net, links, 1, 2, 2, 1, 1, 1))
		for i, c := range [][2]float64{{1, 3}, {2 * (1 + 1e-7), 6}, {100, 6}, {3 * (1 + 1e-8), 6}, {3 * (1 + 1e-8), 6 * (1 + 1e-7)}} {
			caps.Link[links[0]], caps.Link[links[1]] = c[0], c[1]
			if st := w.solve(fmt.Sprintf("caps %v", c)); !st.Converged {
				t.Fatalf("step %d: not converged: %+v", i, st)
			}
		}
		if !newton && w.evals[0] == w.evals[1] {
			t.Fatal("no row was skipped")
		}
	})
	// The most expensive row gets its capacity raised a millionfold: its
	// price collapses to 0 mid-solve and every denominator it carried
	// drops. Alternating with a near-zero capacity drives its price up
	// by orders of magnitude first, so the collapse leaves the other rows'
	// contributions at the edge of the rounding.
	t.Run("collapsing price", func(t *testing.T) {
		var key rowKey
		var base float64
		churn(t, 64, 6, Options{}, func(w *twin, caps *network.Capacities, step int) {
			s := w.got
			if step%2 == 0 {
				best := -1.0
				for j := range s.rows {
					if r := &s.rows[j]; r.price > best && s.capOf(r.key) > 0 {
						best, key = r.price, r.key
					}
				}
				base = s.capOf(key)
				setCap(s, caps, key, base*[]float64{1e-9, 1e-3}[step%4/2])
				return
			}
			setCap(s, caps, key, base*1e6)
		})
	})
	// Zero-capacity elements zero their flows, which drop out of the
	// descent; restoring the capacity brings them back.
	t.Run("zero-capacity rows", func(t *testing.T) {
		churn(t, 64, 7, Options{}, func(w *twin, caps *network.Capacities, step int) {
			v := step % 16
			switch step % 3 {
			case 0:
				*ncpCap(caps, v, resource.CPU) = 0
			case 1:
				caps.Link[v] = 0
			default:
				*ncpCap(caps, v, resource.CPU), caps.Link[v] = 3000, 1000
			}
		})
	})
	// A fresh, lower capacity vector swapped in between solves.
	t.Run("capacity drop through SetCapacities", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		churn(t, 64, 8, Options{}, func(w *twin, caps *network.Capacities, _ int) {
			next := caps.Clone()
			for v := range next.NumNCPs() {
				*ncpCap(next, v, resource.CPU) *= 0.5 + rng.Float64()/2
			}
			for l := range next.Link {
				next.Link[l] *= 0.5 + rng.Float64()/2
			}
			w.setCaps(next)
		})
	})
	// Cold restarts: dropped prices, and a cycle budget too small for the
	// warm descent so Solve restarts it cold and may stop unconverged.
	t.Run("cold restarts", func(t *testing.T) {
		w := churn(t, 64, 9, Options{}, func(w *twin, _ *network.Capacities, step int) {
			if step%3 == 0 {
				w.invalidate()
			}
		})
		if w.cold < 30 {
			t.Errorf("%d cold solves after invalidate", w.cold)
		}
		if w = churn(t, 64, 10, Options{Cycles: 4}, nil); w.cold < 2 {
			t.Error("no warm solve ran out of cycles and restarted cold")
		}
	})
}

// referenceSolve is Solver.Solve as it was before slack certificates,
// kept verbatim as the differential oracle of TestSlackSkipMatchesReference
// but for the Newton steps between sweeps, which it takes like Solve does
// (without the growth factor it does not keep).
func referenceSolve(s *Solver, dst []float64) ([]float64, Stats, error) {
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
	rows, nActive := s.pkRows[:0], s.live
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
			if e.slot >= 0 && active[e.slot] {
				active[e.slot] = false
				nActive--
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
	s.blk.rows = s.blk.rows[:0]
	stats.NNZ = len(pk)

	// descend (re)initializes never-priced rows at the single-constraint
	// optimum scale — previously priced rows keep their price, which is the
	// warm start — rebuilds the denominators in O(nnz), and runs the cyclic
	// coordinate descent until the tolerance or cycle budget is hit.
	descend := func() {
		// denom[f] = Σ_j λ_j R_{jf}, maintained incrementally as prices
		// move.
		clear(denom)
		for _, pr := range rows {
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
			maxRel, nB := 0.0, 0
			for _, pr := range rows {
				r, ents := &s.rows[pr.row], pk[pr.off:pr.end]
				lambda, evals, _ := solveRow(ents, denom, r.price, pr.cap, s.opt.Tolerance)
				stats.RowEvals += evals
				if delta := lambda - r.price; delta != 0 {
					maxRel = math.Max(maxRel, math.Abs(delta)/math.Max(lambda, r.price))
					for _, e := range ents {
						denom[e.slot] += delta * e.coef
					}
					r.price = lambda
				}
				if r.price > 0 {
					nB++
				}
			}
			if maxRel < s.opt.Tolerance {
				stats.Converged = true
				return
			}
			if 0 < nB && nB <= nActive {
				steps, _ := s.newton(rows, pk, denom)
				stats.NewtonSteps += steps
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
