package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// lineN builds a line network of n NCPs (each with the given cpu capacity)
// joined by n-1 links of the given bandwidth.
func lineN(t *testing.T, n int, cpu, bw float64) (*network.Network, []network.LinkID) {
	t.Helper()
	b := network.NewBuilder("lineN")
	ids := make([]network.NCPID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNCP("v", resource.Vector{resource.CPU: cpu}, 0)
	}
	links := make([]network.LinkID, n-1)
	for i := 0; i < n-1; i++ {
		links[i] = b.AddLink("l", ids[i], ids[i+1], bw, 0)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, links
}

// segmentFlow places a src -> ct -> snk pipeline on the segment
// [a, m, b] of a line network, routing its transport tasks along the
// intermediate links. Distinct segments load distinct constraint rows,
// which is what exercises the sparse solver.
func segmentFlow(t *testing.T, net *network.Network, links []network.LinkID, a, m, b int, cpu, bits, weight float64) Flow {
	t.Helper()
	tb := taskgraph.NewBuilder("f")
	s := tb.AddCT("src", nil)
	c := tb.AddCT("ct", resource.Vector{resource.CPU: cpu})
	k := tb.AddCT("snk", nil)
	tb.AddTT("in", s, c, bits)
	tb.AddTT("out", c, k, bits)
	g, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(g, net)
	for ct, host := range map[taskgraph.CTID]network.NCPID{s: network.NCPID(a), c: network.NCPID(m), k: network.NCPID(b)} {
		if err := p.PlaceCT(ct, host); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.PlaceTT(0, links[a:m]); err != nil {
		t.Fatal(err)
	}
	if err := p.PlaceTT(1, links[m:b]); err != nil {
		t.Fatal(err)
	}
	return Flow{Weight: weight, Path: p}
}

// ncpCap returns the cell of caps holding NCP v's capacity of kind k,
// which the network must offer.
func ncpCap(caps *network.Capacities, v int, k resource.Kind) *float64 {
	return &caps.NCP(network.NCPID(v))[caps.Kinds().Index(k)]
}

// relDiff is the relative difference of two rates, falling back to the
// absolute difference near zero.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestSolverWarmMatchesColdUnderChurn is the tentpole property test:
// through a random interleaving of flow adds, removals and in-place
// capacity edits, every warm-started incremental Solve must return the
// same rates as a cold SolveStats over the same live flows and
// capacities, within solver tolerance.
func TestSolverWarmMatchesColdUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, links := lineN(t, 8, 100, 80)
	caps := net.BaseCapacities()
	s := NewSolver(caps, Options{})

	type held struct {
		id   FlowID
		flow Flow
	}
	var live []held
	var dst []float64
	newFlow := func() Flow {
		a := rng.Intn(6)
		m := a + 1 + rng.Intn(7-a-1)
		b := m + rng.Intn(8-m)
		if b == m {
			b = m // CT and sink co-located: out TT routes over no links
		}
		return segmentFlow(t, net, links, a, m, b,
			1+rng.Float64()*10, 1+rng.Float64()*10, 0.5+rng.Float64()*3)
	}

	warmSeen := false
	for step := 0; step < 80; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(live) == 0:
			k := 1 + rng.Intn(3)
			flows := make([]Flow, k)
			for i := range flows {
				flows[i] = newFlow()
			}
			ids, err := s.AddFlows(flows)
			if err != nil {
				t.Fatalf("step %d: AddFlows: %v", step, err)
			}
			for i, id := range ids {
				live = append(live, held{id: id, flow: flows[i]})
			}
		case op == 1:
			k := 1 + rng.Intn(len(live))
			ids := make([]FlowID, 0, k)
			for i := 0; i < k; i++ {
				j := rng.Intn(len(live))
				ids = append(ids, live[j].id)
				live = append(live[:j], live[j+1:]...)
			}
			s.RemoveFlows(ids)
		case op == 2:
			// In-place capacity mutation: the Solver reads lazily, so no
			// notification is required.
			v := rng.Intn(8)
			*ncpCap(caps, v, resource.CPU) = 20 + rng.Float64()*120
		default:
			l := rng.Intn(len(links))
			caps.Link[links[l]] = 30 + rng.Float64()*80
		}
		if s.Len() == 0 {
			continue
		}

		var stats Stats
		var err error
		dst, stats, err = s.Solve(dst)
		if err != nil {
			t.Fatalf("step %d: warm solve: %v", step, err)
		}
		if stats.Warm {
			warmSeen = true
		}
		if stats.Converged {
			checkKKT(t, s, dst)
		}
		flows := make([]Flow, len(live))
		for i, h := range live {
			flows[i] = h.flow
		}
		// Random capacities occasionally produce near-degenerate duals on
		// which cyclic descent converges very slowly; give the cold
		// reference a generous cycle budget so the comparison measures the
		// warm start, not the reference's truncation.
		want, _, err := SolveStats(caps, flows, Options{Cycles: 5000})
		if err != nil {
			t.Fatalf("step %d: cold solve: %v", step, err)
		}
		if s.Len() != len(live) {
			t.Fatalf("step %d: solver holds %d flows, want %d", step, s.Len(), len(live))
		}
		tol := 1e-6
		if !stats.Converged {
			// The warm solve ran out of cycles (after its internal cold
			// restart): its truncated answer is still feasible but only
			// loosely matches the reference.
			tol = 0.05
		}
		for i, h := range live {
			if d := relDiff(dst[h.id], want[i]); d > tol {
				t.Fatalf("step %d: flow %v warm rate %v vs cold %v (diff %v, converged=%v)",
					step, h.id, dst[h.id], want[i], d, stats.Converged)
			}
		}
	}
	if !warmSeen {
		t.Fatal("no solve ever warm-started")
	}
}

// TestSolverCompactionPreservesWarmth removes enough flows to trigger row
// compaction and checks both correctness and that the solver still
// reports warm starts afterwards.
func TestSolverCompactionPreservesWarmth(t *testing.T) {
	net, links := lineN(t, 6, 100, 90)
	caps := net.BaseCapacities()
	s := NewSolver(caps, Options{})
	rng := rand.New(rand.NewSource(11))
	flows := make([]Flow, 40)
	for i := range flows {
		a := rng.Intn(4)
		m := a + 1
		b := m + rng.Intn(6-m)
		flows[i] = segmentFlow(t, net, links, a, m, b, 2+rng.Float64()*5, 1+rng.Float64()*3, 1)
	}
	ids, err := s.AddFlows(flows)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(nil); err != nil {
		t.Fatal(err)
	}
	s.RemoveFlows(ids[:36]) // well past the dead > live threshold
	if s.nnzDead != 0 {
		t.Fatalf("compaction did not run: %d dead entries", s.nnzDead)
	}
	rates, stats, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Warm {
		t.Fatal("compaction lost the warm prices")
	}
	want, _, err := SolveStats(caps, flows[36:], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids[36:] {
		if d := relDiff(rates[id], want[i]); d > 1e-6 {
			t.Fatalf("flow %v: warm %v vs cold %v", id, rates[id], want[i])
		}
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if s.NNZ() == 0 {
		t.Fatal("NNZ = 0 with live flows")
	}
}

// TestSolverWarmCheaperThanCold pins the point of warm starting: after a
// one-flow delta, the warm re-solve must need no more cycles than the
// cold solve of the same instance (and in practice far fewer).
func TestSolverWarmCheaperThanCold(t *testing.T) {
	net, links := lineN(t, 8, 100, 80)
	caps := net.BaseCapacities()
	rng := rand.New(rand.NewSource(3))
	s := NewSolver(caps, Options{})
	flows := make([]Flow, 24)
	for i := range flows {
		a := rng.Intn(6)
		m := a + 1
		b := m + rng.Intn(8-m)
		flows[i] = segmentFlow(t, net, links, a, m, b, 1+rng.Float64()*8, 1+rng.Float64()*6, 0.5+rng.Float64()*2)
	}
	if _, err := s.AddFlows(flows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(nil); err != nil {
		t.Fatal(err)
	}
	extra := segmentFlow(t, net, links, 2, 3, 5, 4, 2, 1)
	ids, err := s.AddFlows([]Flow{extra})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cold, err := SolveStats(caps, append(append([]Flow(nil), flows...), extra), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Cycles > cold.Cycles {
		t.Fatalf("warm solve took %d cycles vs cold %d (warm=%v)", warm.Cycles, cold.Cycles, warm.Warm)
	}
	s.RemoveFlows(ids)
	_, warm2, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm2.Warm {
		t.Fatal("re-solve after removal did not warm-start")
	}
}

// TestSolverZeroCapacityMatchesCold flips an element's capacity to zero
// between warm solves: the crossing flows must drop to rate zero exactly
// as the cold path decides.
func TestSolverZeroCapacityMatchesCold(t *testing.T) {
	net, links := lineN(t, 4, 50, 60)
	caps := net.BaseCapacities()
	s := NewSolver(caps, Options{})
	f1 := segmentFlow(t, net, links, 0, 1, 2, 5, 2, 1)
	f2 := segmentFlow(t, net, links, 2, 3, 3, 5, 2, 1)
	ids, err := s.AddFlows([]Flow{f1, f2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(nil); err != nil {
		t.Fatal(err)
	}
	*ncpCap(caps, 1, resource.CPU) = 0 // starve f1's compute host
	rates, _, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rates[ids[0]] != 0 {
		t.Fatalf("starved flow rate = %v, want 0", rates[ids[0]])
	}
	want, _, err := SolveStats(caps, []Flow{f1, f2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(rates[ids[1]], want[1]); d > 1e-6 {
		t.Fatalf("surviving flow: warm %v vs cold %v", rates[ids[1]], want[1])
	}
	// Restore capacity: the starved flow must come back.
	*ncpCap(caps, 1, resource.CPU) = 50
	rates, _, err = s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rates[ids[0]] <= 0 {
		t.Fatalf("restored flow rate = %v, want > 0", rates[ids[0]])
	}
}

// TestSolverValidation mirrors the cold path's error contract.
func TestSolverValidation(t *testing.T) {
	net, links := lineN(t, 4, 50, 60)
	s := NewSolver(net.BaseCapacities(), Options{})
	if _, _, err := s.Solve(nil); err != ErrNoFlows {
		t.Fatalf("empty solve err = %v, want ErrNoFlows", err)
	}
	bad := segmentFlow(t, net, links, 0, 1, 2, 5, 2, 1)
	bad.Weight = -1
	if _, err := s.AddFlows([]Flow{bad}); err == nil {
		t.Fatal("negative weight must be rejected")
	}
	if s.Len() != 0 {
		t.Fatal("failed AddFlows must insert nothing")
	}
}

// TestSolverFlowIDsAreSlots pins the id contract: RemoveFlows frees an id,
// Solve reads 0 for it until AddFlows reissues it to a new flow, whose
// rate replaces the old flow's, and ids that hold no flow are ignored.
func TestSolverFlowIDsAreSlots(t *testing.T) {
	net, links := lineN(t, 4, 50, 60)
	caps := net.BaseCapacities()
	s := NewSolver(caps, Options{})
	f := []Flow{
		segmentFlow(t, net, links, 0, 1, 2, 5, 2, 1),
		segmentFlow(t, net, links, 1, 2, 3, 5, 2, 2),
		segmentFlow(t, net, links, 0, 2, 3, 3, 1, 1),
	}
	ids, err := s.AddFlows(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(nil); err != nil {
		t.Fatal(err)
	}
	freed := ids[1]
	s.RemoveFlows([]FlowID{freed})
	// Out of range, and freed already: ignored.
	s.RemoveFlows([]FlowID{-1, FlowID(len(f)), 123, freed})
	if s.Len() != 2 {
		t.Fatalf("Len = %d after removing one of 3 flows, want 2", s.Len())
	}
	rates, _, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != len(f) || rates[freed] != 0 {
		t.Fatalf("rates %v: want %d entries, 0 at freed id %d", rates, len(f), freed)
	}
	extra := segmentFlow(t, net, links, 2, 3, 3, 4, 3, 3)
	again, err := s.AddFlows([]Flow{extra})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != freed {
		t.Fatalf("AddFlows issued id %d, want the freed id %d", again[0], freed)
	}
	rates, _, err = s.Solve(rates)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SolveStats(caps, []Flow{f[0], extra, f[2]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []FlowID{ids[0], freed, ids[2]} {
		if d := relDiff(rates[id], want[i]); d > 1e-9 {
			t.Fatalf("id %d: rate %v, cold %v", id, rates[id], want[i])
		}
	}
}

// bisectRow is the row update the solver used before the Newton root-find,
// kept as its test oracle: bracket the root by doubling, then bisect until
// the bracket is relatively tighter than a hundredth of tol.
func bisectRow(ents []entry, denom []float64, price, cap, tol float64) float64 {
	demandAt := func(lambda float64) float64 {
		demand := 0.0
		for _, e := range ents {
			d := denom[e.slot] - price*e.coef + lambda*e.coef
			if d <= 0 {
				return math.Inf(1)
			}
			demand += e.cw / d
		}
		return demand
	}
	var lo, hi float64
	bracketed := false
	if price > 0 {
		d := demandAt(price)
		if math.Abs(d-cap) <= cap*tol {
			return price
		}
		if d > cap {
			lo, hi, bracketed = price, price, true
		}
	}
	if !bracketed {
		if demandAt(0) <= cap {
			return 0
		}
		lo, hi = 0, math.Max(price, 1e-12)
	}
	for demandAt(hi) > cap {
		hi *= 2
	}
	for k := 0; k < 100 && hi-lo > tol*0.01*hi; k++ {
		if mid := (lo + hi) / 2; demandAt(mid) > cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// bisectSolve is a cold solve of the same cyclic descent with bisectRow as
// its row update: the reference full solves are compared against.
func bisectSolve(t *testing.T, caps *network.Capacities, flows []Flow, opt Options) []float64 {
	t.Helper()
	opt = opt.withDefaults()
	s := NewSolver(caps, opt)
	if _, err := s.AddFlows(flows); err != nil {
		t.Fatal(err)
	}
	zeroed := make([]bool, len(flows)) // slot i is flow i in a fresh solver
	for j := range s.rows {
		if s.capOf(s.rows[j].key) <= 0 {
			for _, e := range s.rows[j].ents {
				zeroed[e.slot] = true
			}
		}
	}
	type refRow struct {
		ents       []entry
		cap, price float64
	}
	var rows []refRow
	denom := make([]float64, len(flows))
	for j := range s.rows {
		r := refRow{cap: s.capOf(s.rows[j].key)}
		for _, e := range s.rows[j].ents {
			if !zeroed[e.slot] {
				r.ents = append(r.ents, e)
				r.price += flows[e.slot].Weight / r.cap
			}
		}
		if r.cap <= 0 || len(r.ents) == 0 {
			continue
		}
		for _, e := range r.ents {
			denom[e.slot] += r.price * e.coef
		}
		rows = append(rows, r)
	}
	for cycle := 0; cycle < opt.Cycles; cycle++ {
		maxRel := 0.0
		for j := range rows {
			r := &rows[j]
			lambda := bisectRow(r.ents, denom, r.price, r.cap, opt.Tolerance)
			if delta := lambda - r.price; delta != 0 {
				maxRel = math.Max(maxRel, math.Abs(delta)/math.Max(lambda, r.price))
				for _, e := range r.ents {
					denom[e.slot] += delta * e.coef
				}
				r.price = lambda
			}
		}
		if maxRel < opt.Tolerance {
			break
		}
	}
	x := make([]float64, len(flows))
	scale := 1.0
	for i := range x {
		if !zeroed[i] {
			x[i] = flows[i].Weight / denom[i]
		}
	}
	for _, r := range rows {
		demand := 0.0
		for _, e := range r.ents {
			demand += e.coef * x[e.slot]
		}
		if demand > r.cap {
			scale = math.Min(scale, r.cap/demand)
		}
	}
	for i := range x {
		x[i] *= scale
	}
	return x
}

// checkKKT verifies that rates and the solver's prices satisfy the
// optimality conditions of problem (4) over the flows no zero-capacity
// element starves: primal feasibility, non-negative prices, complementary
// slackness, and stationarity w/x = Σ λ·c, each within 1e-9 relative.
func checkKKT(t *testing.T, s *Solver, rates []float64) {
	t.Helper()
	if err := kktError(s, rates); err != nil {
		t.Error(err)
	}
}

// kktError returns the first optimality condition checkKKT finds violated.
func kktError(s *Solver, rates []float64) error {
	const tol = 1e-9
	zeroed := make([]bool, len(s.flows))
	for j := range s.rows {
		if s.capOf(s.rows[j].key) <= 0 {
			for _, e := range s.rows[j].ents {
				if e.slot >= 0 {
					zeroed[e.slot] = true
				}
			}
		}
	}
	pathPrice := make([]float64, len(s.flows))
	for j := range s.rows {
		r := &s.rows[j]
		c := s.capOf(r.key)
		demand, bound := 0.0, false
		for _, e := range r.ents {
			if e.slot >= 0 && !zeroed[e.slot] {
				bound = true
				demand += e.coef * rates[e.slot]
				pathPrice[e.slot] += r.price * e.coef
			}
		}
		switch {
		case c <= 0 || !bound:
			// prices nothing
		case !(r.price >= 0):
			return fmt.Errorf("row %v: price %v", r.key, r.price)
		case demand > c*(1+tol):
			return fmt.Errorf("row %v: demand %v exceeds capacity %v", r.key, demand, c)
		case r.price > 0 && demand < c*(1-tol):
			return fmt.Errorf("row %v: price %v on a slack row (demand %v of %v)", r.key, r.price, demand, c)
		}
	}
	for i, f := range s.flows {
		switch x := rates[i]; {
		case !f.alive:
		case zeroed[i]:
			if x != 0 {
				return fmt.Errorf("flow %v: rate %v across a zero-capacity element", i, x)
			}
		case !(x > 0) || math.Abs(f.weight/x-pathPrice[i]) > tol*pathPrice[i]:
			return fmt.Errorf("flow %v: w/x = %v/%v but path price %v", i, f.weight, x, pathPrice[i])
		}
	}
	return nil
}

// randomRow draws one row in the middle of a descent: n flows with
// coefficients spread over coefSpread decades, the other rows contributing
// between a hundredth and ten times this row's share of each congestion
// price (none at all for a flow that loads only this row).
func randomRow(rng *rand.Rand, n int, coefSpread float64) (ents []entry, denom []float64, price float64) {
	pow := func(lo, hi float64) float64 { return math.Pow(10, lo+rng.Float64()*(hi-lo)) }
	price = pow(-4, 2)
	for i := 0; i < n; i++ {
		coef, other := pow(-coefSpread/2, coefSpread/2), 0.0
		if rng.Intn(4) > 0 {
			other = price * coef * pow(-2, 1)
		}
		ents = append(ents, entry{slot: int32(i), coef: coef, cw: coef * pow(-1, 1)})
		denom = append(denom, other+price*coef)
	}
	return ents, denom, price
}

// TestSolveRowMatchesBisection is the per-row oracle property: from starts
// below, at and above the root, from price zero and with slack capacity,
// the Newton root-find lands where the bisection did.
func TestSolveRowMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const tol = 1e-12
	for trial := 0; trial < 4000; trial++ {
		ents, denom, price := randomRow(rng, 1+rng.Intn(12), 6)
		// Capacity is the demand at a root placed up to two decades off
		// the current price, or large enough that the row is slack at zero.
		root := price * math.Pow(10, -2+4*rng.Float64())
		cap, _ := rowDemand(ents, denom, root-price)
		start := price
		switch trial % 8 {
		case 0:
			if d, _ := rowDemand(ents, denom, -price); !math.IsInf(d, 1) {
				cap = d * (1 + rng.Float64())
			}
		case 1: // warm start from price zero
			for i, e := range ents {
				denom[i] -= price * e.coef
			}
			start = 0
			if d, _ := rowDemand(ents, denom, root); !math.IsInf(d, 1) {
				cap = d
			}
		}
		want := bisectRow(ents, denom, start, cap, tol)
		got, evals, _ := solveRow(ents, denom, start, cap, tol)
		if math.Abs(got-want) > 1e-12*want || evals > 40 {
			t.Fatalf("trial %d: Newton %v in %d passes, bisection %v (start %v, cap %v, ents %v, denom %v)",
				trial, got, evals, want, start, cap, ents, denom)
		}
	}
}

// TestSolveRowDegenerate table-tests the row shapes that stress the
// safeguard rather than the Newton step.
func TestSolveRowDegenerate(t *testing.T) {
	const tol = 1e-12
	one := []entry{{slot: 0, coef: 2, cw: 6}}
	spread := []entry{{0, 1e-6, 1e-6}, {1, 1, 3}, {2, 1e6, 2e6}}
	for _, tc := range []struct {
		name       string
		ents       []entry
		denom      []float64
		price, cap float64
		want       float64 // NaN: whatever the bisection says
	}{
		// demand 6/(1+2λ) = 2 at λ = 1
		{"single flow from below", one, []float64{1 + 2*0.25}, 0.25, 2, 1},
		{"single flow from above", one, []float64{1 + 2*8}, 8, 2, 1},
		// a flow loading only this row: demand 6/(2λ), infinite at zero
		{"only row, never priced above zero", one, []float64{0}, 0, 2, 1.5},
		{"only row, priced", one, []float64{2 * 40}, 40, 2, 1.5},
		{"slack at zero from a positive price", one, []float64{1 + 2*3}, 3, 7, 0},
		{"slack at zero from zero", one, []float64{1}, 0, 7, 0},
		{"exactly at the root", one, []float64{3}, 1, 2, 1},
		{"coefficient spread 1e-6..1e6", spread, []float64{2e-6, 2, 2e6}, 1, 0.5, math.NaN()},
		{"coefficient spread, only row", spread, []float64{1e-6, 1, 1e6}, 1, 40, math.NaN()},
	} {
		got, evals, _ := solveRow(tc.ents, tc.denom, tc.price, tc.cap, tol)
		want := tc.want
		if math.IsNaN(want) {
			want = bisectRow(tc.ents, tc.denom, tc.price, tc.cap, tol)
		}
		if math.Abs(got-want) > 1e-12*want || evals > 40 {
			t.Errorf("%s: price %v in %d passes, want %v", tc.name, got, evals, want)
		}
	}
}

// TestSolverMatchesBisectionOracle compares cold full solves of seeded
// random instances — line segments and mesh16 pipelines — against the
// bisection descent, and checks the optimality conditions of each.
func TestSolverMatchesBisectionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lineNet, links := lineN(t, 8, 100, 80)
	meshNet, meshLinks := mesh16(t)
	for trial := 0; trial < 30; trial++ {
		net := meshNet
		flows := make([]Flow, 1+rng.Intn(40))
		for i := range flows {
			if trial%2 == 0 {
				flows[i] = meshPipeline(t, rng, meshNet, meshLinks)
				continue
			}
			net = lineNet
			a := rng.Intn(6)
			m := a + 1 + rng.Intn(7-a-1)
			b := m + rng.Intn(8-m)
			flows[i] = segmentFlow(t, net, links, a, m, b,
				math.Pow(10, -3+6*rng.Float64()), math.Pow(10, -3+6*rng.Float64()), 0.5+rng.Float64()*3)
		}
		caps := net.BaseCapacities()
		s := NewSolver(caps, Options{})
		ids, err := s.AddFlows(flows)
		if err != nil {
			t.Fatal(err)
		}
		rates, stats, err := s.Solve(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bisectSolve(t, caps, flows, Options{})
		for i, id := range ids {
			if math.Abs(rates[id]-want[i]) > 1e-9*want[i] {
				t.Fatalf("trial %d flow %d: rate %v, bisection oracle %v", trial, i, rates[id], want[i])
			}
		}
		if stats.Converged {
			checkKKT(t, s, rates)
		}
	}
}

// TestSolverDegenerateStates covers the solver-level corners around the
// row update: every flow zeroed, and prices dropped by invalidate.
func TestSolverDegenerateStates(t *testing.T) {
	net, links := lineN(t, 4, 50, 60)
	caps := net.BaseCapacities()
	s := NewSolver(caps, Options{})
	flows := []Flow{segmentFlow(t, net, links, 0, 1, 2, 5, 2, 1), segmentFlow(t, net, links, 1, 2, 3, 5, 2, 2)}
	ids, err := s.AddFlows(flows)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Never-priced (NaN) rows after invalidate: the next solve is cold and
	// lands on the same rates.
	s.invalidate()
	again, stats, err := s.Solve(nil)
	if err != nil || stats.Warm || !stats.Converged {
		t.Fatalf("solve after invalidate: stats %+v, err %v", stats, err)
	}
	for _, id := range ids {
		if relDiff(again[id], first[id]) > 1e-9 {
			t.Fatalf("flow %v: %v after invalidate, %v before", id, again[id], first[id])
		}
	}
	checkKKT(t, s, again)
	// Every element at zero capacity: all rates zero, nothing to price —
	// an answer, not an error.
	for v := range caps.NumNCPs() {
		*ncpCap(caps, v, resource.CPU) = 0
	}
	for l := range caps.Link {
		caps.Link[l] = 0
	}
	zero, stats, err := s.Solve(nil)
	if err != nil || stats.Rows != 0 || !stats.Converged {
		t.Fatalf("all-zero solve: stats %+v, err %v", stats, err)
	}
	for _, id := range ids {
		if zero[id] != 0 {
			t.Fatalf("flow %v: rate %v with every element at zero capacity", id, zero[id])
		}
	}
	checkKKT(t, s, zero)
}

// TestSolverChurnAllocs pins the mutation side: in steady state a
// withdraw-admit-solve step allocates only the id slice AddFlows hands its
// caller — no row, scratch or sort allocation, also for flows loading
// several resource kinds of one NCP.
func TestSolverChurnAllocs(t *testing.T) {
	b := network.NewBuilder("multi")
	caps := resource.Vector{resource.CPU: 100, resource.Memory: 64}
	v0, v1 := b.AddNCP("v0", caps, 0), b.AddNCP("v1", caps, 0)
	link := b.AddLink("l", v0, v1, 50, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]Flow, 16)
	for i := range flows {
		gb := taskgraph.NewBuilder("f")
		src := gb.AddCT("src", resource.Vector{resource.CPU: 1 + float64(i%3), resource.Memory: 2})
		snk := gb.AddCT("snk", resource.Vector{resource.CPU: 2, resource.Memory: 1 + float64(i%2)})
		gb.AddTT("tt", src, snk, 1)
		g, err := gb.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := placement.New(g, net)
		if err := p.PlaceCT(src, v0); err != nil {
			t.Fatal(err)
		}
		if err := p.PlaceCT(snk, v1); err != nil {
			t.Fatal(err)
		}
		if err := p.PlaceTT(0, []network.LinkID{link}); err != nil {
			t.Fatal(err)
		}
		flows[i] = Flow{Weight: 1 + float64(i%4), Path: p}
	}
	s := NewSolver(net.BaseCapacities(), Options{})
	live, err := s.AddFlows(flows[:8])
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func() {
		s.RemoveFlows(live[:1])
		ids, err := s.AddFlows(flows[i%16 : i%16+1])
		if err != nil {
			t.Fatal(err)
		}
		copy(live, live[1:])
		live[len(live)-1] = ids[0]
		if _, _, err := s.Solve(dst); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for k := 0; k < 64; k++ { // grow rows and scratch to their steady size
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 1 {
		t.Fatalf("churn step allocates %v per op, want 1 (the returned id slice)", allocs)
	}
}
