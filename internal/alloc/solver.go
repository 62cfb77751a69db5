package alloc

import (
	"fmt"
	"math"
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
)

// FlowID is a flow's slot in a Solver: valid from the AddFlows call that
// returned it until the flow is passed to RemoveFlows, after which a later
// AddFlows may reissue it. Solve returns rates indexed by id.
type FlowID int32

// rowKey identifies one capacity constraint: an NCP resource kind or a
// link. elem is the NCP id for NCP rows and numNCPs+linkID for link rows;
// kind is empty for link rows.
type rowKey struct {
	elem int
	kind resource.Kind
}

// entry is one constraint-matrix nonzero: the flow's slot, its per-unit
// load coef on the element, and cw = coef·weight, the numerator of the
// flow's demand on the row — kept beside coef so a row pass never gathers
// weights through the flow table.
type entry struct {
	slot     int32 // -1 = tombstoned
	coef, cw float64
}

// csrRow is one constraint row in compressed sparse form: only the flows
// that actually load the element appear. Removed flows leave tombstones in
// ents until the next compaction; the dual price survives both removals
// and compaction, which is what makes re-solves warm.
type csrRow struct {
	key   rowKey
	ents  []entry
	dead  int32
	price float64 // dual price; NaN = never priced
}

func (r *csrRow) liveNNZ() int { return len(r.ents) - int(r.dead) }

// packedRow is one priced row of a single Solve: its capacity, its span
// pk[off:end] of the packed entries, and its slack certificate (D and G₀,
// see Solve; D = +Inf: none yet).
type packedRow struct {
	row, off, end int32
	cap           float64
	slack, grown  float64
}

// rowRef locates one matrix entry from the flow side so RemoveFlows can
// tombstone a flow's column in O(path length).
type rowRef struct{ row, pos int32 }

type sflow struct {
	weight float64
	path   *placement.Placement
	refs   []rowRef
	alive  bool
}

// Solver solves SPARCLE's proportional-fair problem (4) incrementally: it
// keeps the sparse constraint matrix, dual prices and per-flow
// denominators between calls so that after a small change (one app
// admitted or removed, capacities nudged) the next Solve warm-starts the
// dual descent from the previous prices and converges in a couple of
// cycles instead of a full cold run. Each cycle sweeps the priced rows: a
// row at price 0 whose slack certificate still holds is skipped; any other
// row gets one pass that tells whether its demand still meets its
// capacity, and if not a few Newton passes (solveRow) move its price there.
// Between cycles, Newton steps on the block of rows with a positive price
// move all of those prices at once (newton).
//
// Capacities are read lazily at Solve time through the pointer given to
// NewSolver/SetCapacities, so callers that mutate the capacity vectors in
// place (delta accounting) never have to notify the Solver. Warm results
// match a cold Solve over the same flows within the solver tolerance.
// A Solver is not safe for concurrent use.
type Solver struct {
	opt     Options
	caps    *network.Capacities
	numNCPs int

	flows []sflow
	free  []int32
	live  int

	rows     []csrRow
	rowIndex map[rowKey]int32
	nnzLive  int
	nnzDead  int

	solved bool // a prior Solve left usable prices behind

	// scratch reused across solves: per-flow-slot vectors, and the packed
	// view the descent runs over — the priced rows and, row after row,
	// their live entries of non-zeroed flows
	denom, x []float64
	active   []bool
	pkRows   []packedRow
	pk       []entry
	blk      block
	kindBuf  []resource.Kind
}

// block is the Newton scratch of one Solve: the priced rows B it was last
// gathered for (indices into the packed rows), their packed entries
// regrouped flow by flow — flow i of slots holds ents[off[i]:off[i+1]],
// in B order — and the dense |B|×|B| system with its step.
type block struct {
	rows, cand       []int32
	slots, off, pos  []int32
	ents             []blockEntry
	h, g, lam, denom []float64
}

// blockEntry is one coefficient of a flow on the row b of B.
type blockEntry struct {
	b    int32
	coef float64
}

// NewSolver returns an empty incremental solver over the given capacities.
func NewSolver(caps *network.Capacities, opt Options) *Solver {
	return &Solver{
		opt:      opt.withDefaults(),
		caps:     caps,
		numNCPs:  caps.NumNCPs(),
		rowIndex: map[rowKey]int32{},
	}
}

// SetCapacities swaps the capacity vectors the Solver reads at Solve time.
// Prices are kept: after a small capacity change the previous prices are
// still an excellent starting point.
func (s *Solver) SetCapacities(caps *network.Capacities) {
	s.caps = caps
	s.numNCPs = caps.NumNCPs()
}

// Len returns the number of live flows held by the Solver.
func (s *Solver) Len() int { return s.live }

// NNZ returns the number of live constraint-matrix entries.
func (s *Solver) NNZ() int { return s.nnzLive }

// AddFlows validates and inserts the given flows, returning one id per
// flow, in input order. On error nothing is inserted; error messages index
// into the argument slice.
func (s *Solver) AddFlows(flows []Flow) ([]FlowID, error) {
	for i, f := range flows {
		if f.Weight <= 0 || math.IsNaN(f.Weight) {
			return nil, fmt.Errorf("alloc: flow %d has invalid weight %v", i, f.Weight)
		}
	}
	for i, f := range flows {
		if !s.hasDemand(f.Path) {
			return nil, fmt.Errorf("alloc: flow %d has no resource demand (unbounded rate)", i)
		}
	}
	ids := make([]FlowID, len(flows))
	for i, f := range flows {
		ids[i] = s.insert(f)
	}
	return ids, nil
}

func (s *Solver) hasDemand(p *placement.Placement) bool {
	for _, load := range p.NCPLoads() {
		for _, a := range load {
			if a > 0 {
				return true
			}
		}
	}
	return len(p.LoadedLinks()) > 0
}

func (s *Solver) insert(f Flow) FlowID {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.flows[slot] = sflow{weight: f.Weight, path: f.Path, refs: s.flows[slot].refs[:0], alive: true}
	} else {
		slot = int32(len(s.flows))
		s.flows = append(s.flows, sflow{weight: f.Weight, path: f.Path, alive: true})
	}
	s.live++
	p := f.Path
	for i, v := range p.LoadedNCPs() {
		load := p.NCPLoads()[i]
		s.kindBuf = s.kindBuf[:0]
		for k, a := range load {
			if a > 0 {
				s.kindBuf = append(s.kindBuf, k)
			}
		}
		slices.Sort(s.kindBuf)
		for _, k := range s.kindBuf {
			s.addEntry(rowKey{elem: int(v), kind: k}, slot, load[k])
		}
	}
	for i, l := range p.LoadedLinks() {
		s.addEntry(rowKey{elem: s.numNCPs + int(l)}, slot, p.LinkLoads()[i])
	}
	return FlowID(slot)
}

func (s *Solver) addEntry(key rowKey, slot int32, coef float64) {
	j, ok := s.rowIndex[key]
	if !ok {
		j = int32(len(s.rows))
		s.rows = append(s.rows, csrRow{key: key, price: math.NaN()})
		s.rowIndex[key] = j
	}
	r := &s.rows[j]
	f := &s.flows[slot]
	f.refs = append(f.refs, rowRef{row: j, pos: int32(len(r.ents))})
	r.ents = append(r.ents, entry{slot: slot, coef: coef, cw: coef * f.weight})
	s.nnzLive++
}

// RemoveFlows detaches the given flows and frees their ids. Ids that hold
// no flow are ignored. Rows keep their prices; tombstoned entries are
// compacted away once they outnumber the live ones.
func (s *Solver) RemoveFlows(ids []FlowID) {
	for _, id := range ids {
		if id < 0 || int(id) >= len(s.flows) || !s.flows[id].alive {
			continue
		}
		slot := int32(id)
		f := &s.flows[slot]
		for _, ref := range f.refs {
			r := &s.rows[ref.row]
			r.ents[ref.pos].slot = -1
			r.dead++
		}
		s.nnzLive -= len(f.refs)
		s.nnzDead += len(f.refs)
		f.refs = f.refs[:0]
		f.alive = false
		f.path = nil
		s.free = append(s.free, slot)
		s.live--
	}
	if s.nnzDead > s.nnzLive {
		s.compact()
	}
}

// compact rewrites the rows without tombstones and drops empty rows,
// preserving each surviving row's price so the solver stays warm.
func (s *Solver) compact() {
	kept := s.rows[:0]
	for j := range s.rows {
		r := s.rows[j]
		if r.liveNNZ() == 0 {
			delete(s.rowIndex, r.key)
			continue
		}
		if r.dead > 0 {
			r.ents = slices.DeleteFunc(r.ents, func(e entry) bool { return e.slot < 0 })
			r.dead = 0
		}
		s.rowIndex[r.key] = int32(len(kept))
		kept = append(kept, r)
	}
	s.rows = kept
	s.nnzDead = 0
	// Row indices and positions moved: rebuild every live flow's refs.
	for i := range s.flows {
		s.flows[i].refs = s.flows[i].refs[:0]
	}
	for j := range s.rows {
		for p, e := range s.rows[j].ents {
			s.flows[e.slot].refs = append(s.flows[e.slot].refs, rowRef{row: int32(j), pos: int32(p)})
		}
	}
}

// Solve runs the dual descent over the current flows and capacities and
// returns the proportional-fair rate of every live flow indexed by id; an
// id that holds no flow reads 0. dst is reused when it is large enough.
// The returned Stats report whether the run was warm-started and the live
// constraint-matrix size.
func (s *Solver) Solve(dst []float64) ([]float64, Stats, error) {
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
	s.blk.rows = s.blk.rows[:0] // the packing moved: gather the block anew
	stats.NNZ = len(pk)

	// descend (re)initializes never-priced rows at the single-constraint
	// optimum scale — previously priced rows keep their price, which is the
	// warm start — rebuilds the denominators in O(nnz), and runs the cyclic
	// coordinate descent until the tolerance or cycle budget is hit. After
	// every sweep that moved a price by Tolerance or more, Newton steps on
	// the block of priced rows (see newton) carry the descent most of the
	// rest of the way, unless that block has more rows than there are
	// flows: its Hessian is then singular and the steps seldom contract.
	// The sweep counts the block, so a skipped step costs nothing.
	//
	// Every row carries a slack certificate: the demand D its last
	// evaluation found at its old price and the growth factor G₀ just
	// before that evaluation. G multiplies, on every price drop — the
	// row's own included — by the largest old/new ratio of the
	// denominators the drop lowered, so none of the row's denominators has
	// fallen by more than G/G₀ since and its demand is at most D·G/G₀. A
	// row at price 0 whose bound stays below capacity, less a 1e-9 margin
	// for rounding, is one solveRow would return unchanged at 0, so it is
	// skipped. Newton multiplies G the same way, by the largest old/new
	// ratio of the denominators it lowered.
	descend := func() {
		// denom[f] = Σ_j λ_j R_{jf}, maintained incrementally as prices
		// move, and recomputed exactly by newton.
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
			maxRel, nB := 0.0, 0
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
				if r.price > 0 {
					nB++
				}
			}
			if maxRel < s.opt.Tolerance {
				stats.Converged = true
				return
			}
			if 0 < nB && nB <= nActive {
				steps, grow := s.newton(rows, pk, denom)
				stats.NewtonSteps += steps
				growth *= grow
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

// newton takes Newton steps on the dual over the block B of rows whose
// price is positive, every other price held at zero, and returns how many
// it took and the factor they multiply the growth factor G by. The dual
// D(λ) = Σ_f w_f(log(w_f/d_f) − 1) + Σ_b λ_b·cap_b, d_f = Σ_b λ_b·A_bf,
// has gradient cap − demand and Hessian H = A_B·diag(w/d²)·A_Bᵀ on B, so
// a step solves H·Δλ = demand − cap by an in-place Cholesky. A pivot below
// 1e-10 of its diagonal marks a row linearly dependent on the rows before
// it: the step leaves that row's price alone and solves for the others.
// Each flow's denominator is recomputed exactly as Σ_B λ_b·A_bf, on entry
// and after each step, so no drift of the running sums survives. A step is
// tried only if every new price and denominator stays positive, and taken
// only if it cuts the largest relative residual |demand − cap|/cap
// fourfold; the steps stop once that residual is within Tolerance. G grows
// by the largest old/new ratio of the denominators a step or the entry
// rebuild lowered, exactly as on a descent price drop, so the slack
// certificates stay sound.
func (s *Solver) newton(rows []packedRow, pk []entry, denom []float64) (steps int, grow float64) {
	b := &s.blk
	b.cand = b.cand[:0]
	for i := range rows {
		if s.rows[rows[i].row].price > 0 {
			b.cand = append(b.cand, int32(i))
		}
	}
	if !slices.Equal(b.cand, b.rows) {
		b.rows = append(b.rows[:0], b.cand...)
		b.gather(rows, pk, len(denom))
	}
	m := len(b.rows)
	b.h, b.g, b.lam = resize(b.h, m*m), resize(b.g, m), resize(b.lam, m)
	b.denom = resize(b.denom, len(b.slots))
	// Start from exact denominators, so that no drift of the running sums
	// survives a sweep that reaches here.
	for k, i := range b.rows {
		b.lam[k] = s.rows[rows[i].row].price
	}
	res := b.system(s, rows)
	if math.IsNaN(res) {
		return 0, 1
	}
	grow = b.commit(s, rows, denom)
	for res > s.opt.Tolerance {
		b.step()
		for k, i := range b.rows {
			if b.lam[k] = s.rows[rows[i].row].price + b.g[k]; !(b.lam[k] > 0) {
				return steps, grow
			}
		}
		next := b.system(s, rows)
		if !(next <= res/4) {
			break
		}
		grow *= b.commit(s, rows, denom)
		steps++
		res = next
	}
	return steps, grow
}

// commit moves the prices of B to b.lam and its flows' denominators to
// b.denom, and returns the largest old/new ratio of those denominators (1
// if none fell).
func (b *block) commit(s *Solver, rows []packedRow, denom []float64) float64 {
	for k, i := range b.rows {
		s.rows[rows[i].row].price = b.lam[k]
	}
	up, down := 1.0, 1.0
	for i, slot := range b.slots {
		old, d := denom[slot], b.denom[i]
		if old*down > up*d {
			up, down = old, d
		}
		denom[slot] = d
	}
	return up / down
}

// system builds the Newton system at the prices b.lam in one pass over
// the flows: each flow's denominator Σ_B λ_b·A_bf into b.denom, g = demand
// − cap, and the lower triangle of H. It returns the largest relative
// residual, or NaN if a denominator is not positive.
func (b *block) system(s *Solver, rows []packedRow) float64 {
	m := len(b.rows)
	h, g := b.h, b.g
	clear(h)
	for k, i := range b.rows {
		g[k] = -rows[i].cap
	}
	for i, slot := range b.slots {
		ents := b.ents[b.off[i]:b.off[i+1]]
		d := 0.0
		for _, e := range ents {
			d += b.lam[e.b] * e.coef
		}
		if !(d > 0) {
			return math.NaN()
		}
		b.denom[i] = d
		x := s.flows[slot].weight / d
		hw := x / d
		for a, ea := range ents {
			g[ea.b] += ea.coef * x
			c, hr := ea.coef*hw, h[int(ea.b)*m:]
			for _, eb := range ents[:a+1] {
				hr[eb.b] += c * eb.coef
			}
		}
	}
	res := 0.0
	for k, i := range b.rows {
		res = math.Max(res, math.Abs(g[k])/rows[i].cap)
	}
	return res
}

// step factors H = L·Lᵀ in place (column j of L below the diagonal), a
// dependent row's column zeroed, then turns g into the step Δλ by the two
// triangular solves.
func (b *block) step() {
	m, h, g := len(b.rows), b.h, b.g
	for j := 0; j < m; j++ {
		hj := h[j*m : j*m+j+1]
		p := hj[j]
		for _, l := range hj[:j] {
			p -= l * l
		}
		if p <= 1e-10*hj[j] {
			for i := j; i < m; i++ {
				h[i*m+j] = 0
			}
			continue
		}
		p = math.Sqrt(p)
		hj[j] = p
		for i := j + 1; i < m; i++ {
			hi := h[i*m : i*m+j+1]
			v := hi[j]
			for k, l := range hj[:j] {
				v -= hi[k] * l
			}
			hi[j] = v / p
		}
	}
	for j := 0; j < m; j++ {
		v := 0.0
		if p := h[j*m+j]; p != 0 {
			v = g[j]
			for k, l := range h[j*m : j*m+j] {
				v -= l * g[k]
			}
			v /= p
		}
		g[j] = v
	}
	for j := m - 1; j >= 0; j-- {
		if p := h[j*m+j]; p != 0 {
			v := g[j]
			for i := j + 1; i < m; i++ {
				v -= h[i*m+j] * g[i]
			}
			g[j] = v / p
		}
	}
}

// gather regroups the packed entries of the rows of B flow by flow, by a
// counting sort keyed on the flow. Flows are numbered in order of first
// appearance, so no sum depends on which slots the flows happen to hold.
func (b *block) gather(rows []packedRow, pk []entry, n int) {
	if cap(b.pos) < n {
		b.pos = make([]int32, n)
	}
	pos := b.pos[:n] // a flow's number + 1; 0 = not in B
	clear(pos)
	b.slots, b.off = b.slots[:0], b.off[:0]
	for _, i := range b.rows {
		for _, e := range pk[rows[i].off:rows[i].end] {
			if pos[e.slot] == 0 {
				b.slots = append(b.slots, e.slot)
				b.off = append(b.off, 0)
				pos[e.slot] = int32(len(b.slots))
			}
			b.off[pos[e.slot]-1]++
		}
	}
	at := int32(0)
	for i, c := range b.off {
		at += c
		b.off[i] = at // the end of flow i's entries, for now
	}
	b.off = append(b.off, at)
	if cap(b.ents) < int(at) {
		b.ents = make([]blockEntry, at)
	}
	b.ents = b.ents[:at]
	// Filled back to front, each flow's entries come out in B order and
	// its offset ends at their start.
	for k := len(b.rows) - 1; k >= 0; k-- {
		i := b.rows[k]
		for _, e := range pk[rows[i].off:rows[i].end] {
			f := pos[e.slot] - 1
			b.off[f]--
			b.ents[b.off[f]] = blockEntry{b: int32(k), coef: e.coef}
		}
	}
}

// solveRow returns the price at which the row's demand meets cap with every
// other price held fixed — zero when the row is slack even there — the
// number of row passes it took, and the demand its first pass found at the
// current price. A price whose demand is within tol of cap is returned
// unchanged: the row is still at its root, the common case on warm
// re-solves. Otherwise the root is found by a safeguarded Newton
// iteration on 1/demand − 1/cap, which is concave and increasing in the
// price because demand is convex and decreasing: from the side where
// demand exceeds cap the iterates rise monotonically to the root and never
// pass it, and a step of relative size s leaves a relative error below s².
// The root is located to the relative width rootTol, a fraction of tol, so
// on that side a step within √rootTol already lands that close.
func solveRow(ents []entry, denom []float64, price, cap, tol float64) (float64, int, float64) {
	rootTol := tol * 0.01
	stepTol := math.Sqrt(rootTol)
	// Demand exceeds cap at lo (−1: at no price tried yet) and does not at
	// hi; lambda walks from the current price.
	lo, hi, lambda, d0 := -1.0, math.Inf(1), price, 0.0
	for it := 1; it <= 100; it++ { // the cap is a safety net, not the usual exit
		d, slope := rowDemand(ents, denom, lambda-price)
		if it == 1 {
			if d0 = d; math.Abs(d-cap) <= cap*tol {
				return price, it, d0
			}
		}
		if d > cap {
			lo = lambda
		} else if hi = lambda; lambda == 0 {
			return 0, it, d0 // slack at price zero: complementary slackness
		}
		next := lambda + (d-cap)/slope*(d/cap)
		if step := math.Abs(next - lambda); step <= rootTol*lambda || (d > cap && step <= stepTol*lambda) {
			return next, it, d0
		}
		if !(next > math.Max(lo, 0) && next < hi) {
			// The step left the bracket (a start above the root overshoots
			// below it, infinite demand has no slope): test zero, grow, or
			// halve the bracket.
			switch {
			case lo < 0:
				next = 0
			case math.IsInf(hi, 1):
				next = math.Max(2*lambda, 1e-12)
			default:
				next = (lo + hi) / 2
			}
		}
		lambda = next
	}
	return lambda, 100, d0
}

// rowDemand returns a row's demand Σ cw/(denom+dl·coef) and the magnitude
// of its slope, Σ cw·coef/(denom+dl·coef)², when the row's price moves by
// dl with every other price held fixed. Demand is convex and strictly
// decreasing in the price; a flow whose congestion price would not stay
// positive makes it +Inf.
func rowDemand(ents []entry, denom []float64, dl float64) (demand, slope float64) {
	for _, e := range ents {
		d := denom[e.slot] + dl*e.coef
		if d <= 0 {
			return math.Inf(1), 0
		}
		inv := 1 / d
		q := e.cw * inv
		demand += q
		slope += q * e.coef * inv
	}
	return demand, slope
}

// invalidate drops all prices after a failed solve so the next call
// re-initializes cold instead of descending from garbage.
func (s *Solver) invalidate() {
	for j := range s.rows {
		s.rows[j].price = math.NaN()
	}
	s.solved = false
}

func (s *Solver) capOf(key rowKey) float64 {
	if key.elem < s.numNCPs {
		return s.caps.Get(network.NCPID(key.elem), key.kind)
	}
	return s.caps.Link[key.elem-s.numNCPs]
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
