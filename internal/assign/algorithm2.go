package assign

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// Sparcle is the dynamic-ranking task assignment algorithm (Algorithm 2).
// CTs are placed one at a time: for every unplaced CT i the best host j*_i
// maximizes the new bottleneck rate γ_{i,j} (eq. (2)), and the CT actually
// placed next is the one whose best achievable bottleneck is smallest —
// the most constrained CT — so the ranking adapts as placement proceeds.
//
// Evaluation runs on a snapshot core: resource kinds are interned into
// dense slices once per assignment (placement.EvalView), and widest-path
// bottlenecks are answered from memoized single-source trees.
type Sparcle struct {
	// LiteralNu makes γ consider every placed reachable CT, exactly as
	// the paper's ν_i is written, instead of only the frontier placed CTs
	// (see gamma). The literal form double-counts transports once an
	// intermediate CT is placed and measurably misses optimal placements
	// (the ablation benchmarks quantify this); it exists for comparison.
	LiteralNu bool
	// Metrics, when set, maintains the evaluation-core counters (γ
	// evaluations, widest-path cache hits/misses). The hot loop counts in
	// plain fields of the assignment's scratch, added to the registry
	// once when the assignment ends; a nil registry drops them.
	Metrics *obs.Registry
	// Span, when set, records every placement decision, which explains
	// why each task landed where it did. It gets one "pin" event per
	// pinned placement (step, ct, host) and parents one "assign.rank"
	// span per dynamic-ranking iteration, carrying the pick (step, ct,
	// host, its γ and the best-host score of every candidate CT), and one
	// "assign.place" span per committed placement. Every widest-path
	// route committed is a "route" event (tt, from, to, hops, bottleneck,
	// relaxations) on the placement's span, or on Span for routes between
	// pinned CTs. The scheduler binds a per-call span here; a nil span is
	// free: no decision payload is built.
	Span *obs.Span
}

var _ placement.Algorithm = Sparcle{}

// Name implements placement.Algorithm.
func (Sparcle) Name() string { return "SPARCLE" }

// Metric names maintained by the assignment evaluation core.
const (
	// metricGammaEvals counts γ evaluations (eq. (2) candidate scorings).
	metricGammaEvals = "sparcle_assign_gamma_evals_total"
	// metricWidestHits / metricWidestMisses count widest-path tree cache
	// lookups served from memory vs computed.
	metricWidestHits   = "sparcle_assign_widest_cache_hits_total"
	metricWidestMisses = "sparcle_assign_widest_cache_misses_total"
)

// DescribeMetrics sets the help texts of the evaluation-core metrics on
// reg (nil-safe). The scheduler calls it once at construction.
func DescribeMetrics(reg *obs.Registry) {
	reg.SetHelp(metricGammaEvals, "Total gamma (eq. 2) candidate evaluations performed by the assignment engine.")
	reg.SetHelp(metricWidestHits, "Total widest-path tree cache lookups served from the per-iteration memo.")
	reg.SetHelp(metricWidestMisses, "Total widest-path tree cache lookups that computed a new single-source tree.")
}

// Assign implements placement.Algorithm.
func (a Sparcle) Assign(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*placement.Placement, error) {
	st, err := newStateCfg(g, pins, net, caps, stateConfig{
		span:      a.Span,
		metrics:   a.Metrics,
		literalNu: a.LiteralNu,
	})
	if err != nil {
		return nil, err
	}
	defer st.release()
	if a.Span != nil {
		for i, ct := range st.placed {
			a.Span.Event("pin", map[string]any{"step": int64(i), "ct": g.CT(ct).Name, "host": net.NCP(st.p.Host(ct)).Name})
		}
	}
	for st.unplaced > 0 {
		rsp := a.Span.Child("assign.rank")
		rsp.SetInt("step", int64(len(st.placed)))
		ct, host, gamma, err := st.dynamicRankNext()
		if err == nil && rsp != nil {
			rsp.SetAttr("ct", g.CT(ct).Name)
			rsp.SetAttr("host", net.NCP(host).Name)
			rsp.SetFloat("gamma", gamma)
			rsp.SetAny("candidates", st.candidates())
		}
		rsp.End()
		if err != nil {
			return nil, err
		}
		psp := a.Span.Child("assign.place")
		st.span = psp
		err = st.place(ct, host)
		psp.End()
		if err != nil {
			return nil, err
		}
	}
	return st.p, nil
}

// Ordered is the shared skeleton of the Greedy Sorted (GS) and Greedy
// Random (GRand) baselines (§V): the same placement machinery as SPARCLE
// (greedy host choice, widest-path TT routing) but with a fixed CT
// placement order decided up front instead of the dynamic ranking, and —
// per the paper's description "not considering the connecting TTs'
// resource requirements" — host selection driven by NCP capacity alone.
type Ordered struct {
	// AlgName is the reported algorithm name.
	AlgName string
	// Order returns the CT placement order for g (pinned CTs are skipped
	// wherever they appear).
	Order func(g *taskgraph.Graph) []taskgraph.CTID
	// FullGamma, if set, restores SPARCLE's transport-aware host choice;
	// by default hosts are picked by the NCP term of eq. (2) only.
	FullGamma bool
}

var _ placement.Algorithm = Ordered{}

// Name implements placement.Algorithm.
func (o Ordered) Name() string { return o.AlgName }

// Assign implements placement.Algorithm.
func (o Ordered) Assign(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*placement.Placement, error) {
	st, err := newState(g, pins, net, caps)
	if err != nil {
		return nil, err
	}
	defer st.release()
	order := o.Order(g)
	if len(order) != g.NumCTs() {
		return nil, fmt.Errorf("assign: %s order covers %d of %d CTs", o.AlgName, len(order), g.NumCTs())
	}
	for _, ct := range order {
		if st.p.Host(ct) >= 0 {
			continue
		}
		var (
			host     network.NCPID
			feasible bool
		)
		if o.FullGamma {
			host, _, feasible = st.bestHost(ct, st.linkTerms(ct, nil, &st.walk))
		} else {
			host, feasible = st.bestHostNCPOnly(ct)
		}
		if !feasible {
			return nil, fmt.Errorf("assign: %s: CT %d: %w", o.AlgName, ct, placement.ErrInfeasible)
		}
		if err := st.place(ct, host); err != nil {
			return nil, err
		}
	}
	return st.p, nil
}

// stateConfig bundles the optional knobs of the greedy state.
type stateConfig struct {
	span      *obs.Span
	metrics   *obs.Registry
	literalNu bool
	// noCache disables the widest-path tree memo (ablation benchmarks
	// only; production always caches).
	noCache bool
}

// state is the mutation layer of the assignment engine: it owns the
// in-progress placement shared by the greedy algorithms and advances the
// immutable-between-iterations evaluation snapshot (view) plus the
// widest-path tree cache as CTs commit. All scoring reads go through view
// and cache; all writes happen in place(), strictly between scoring
// phases.
type state struct {
	g    *taskgraph.Graph
	net  *network.Network
	caps *network.Capacities
	p    *placement.Placement

	unplaced int // CTs not yet placed

	// evalScratch holds every array the assignment evaluates in, taken
	// from scratchPool and handed back by release.
	*evalScratch

	// noCache bypasses the tree memo (ablation benchmarks).
	noCache bool

	// literalNu switches gamma to the paper-literal ν_i (every placed
	// reachable CT) instead of the frontier restriction.
	literalNu bool
	// span receives a "route" event per committed route; nil (the common
	// case) disables all event construction.
	span *obs.Span

	// metrics receives the evaluation-core counts once, on release; nil
	// (no registry attached) drops them.
	metrics *obs.Registry
}

// evalScratch is an assignment's working memory. Assignments recycle it
// through scratchPool, so an admission on a network the pool has seen
// allocates none of it; concurrent assignments each take their own.
type evalScratch struct {
	placed []taskgraph.CTID // in placement order

	// view is the dense evaluation snapshot (residual capacities, loads,
	// hosts); cache memoizes single-source widest-path trees against it.
	view  placement.EvalView
	cache widestCache
	// scratch is the search memory of every route and tree.
	scratch widestScratch
	// changedLinks and route are scratch for the links a place() loads and
	// the route it is committing, reused across placements.
	changedLinks []network.LinkID
	route        []network.LinkID
	// Scratch of the ranking iterations, reused across them: the unplaced
	// CTs in id order, their scores, the link terms of the CT being
	// scored, and the frontier walk that collects those terms.
	cts     []taskgraph.CTID
	results []scored
	terms   []linkTerm
	walk    frontierWalk
	// gammaEvals counts this assignment's γ evaluations for release.
	gammaEvals int
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func newState(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*state, error) {
	return newStateCfg(g, pins, net, caps, stateConfig{})
}

func newStateCfg(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities, cfg stateConfig) (*state, error) {
	for _, src := range g.Sources() {
		if _, ok := pins[src]; !ok {
			return nil, fmt.Errorf("assign: source CT %q (%d) has no pinned host", g.CT(src).Name, src)
		}
	}
	for _, snk := range g.Sinks() {
		if _, ok := pins[snk]; !ok {
			return nil, fmt.Errorf("assign: sink CT %q (%d) has no pinned host", g.CT(snk).Name, snk)
		}
	}
	sc := scratchPool.Get().(*evalScratch)
	sc.placed, sc.gammaEvals = sc.placed[:0], 0
	placement.NewEvalView(&sc.view, g, net, caps)
	sc.cache.reset(g, net, caps, sc.view.LoadLink)
	st := &state{
		g:           g,
		net:         net,
		caps:        caps,
		p:           placement.New(g, net),
		unplaced:    g.NumCTs(),
		evalScratch: sc,
		noCache:     cfg.noCache,
		literalNu:   cfg.literalNu,
		span:        cfg.span,
		metrics:     cfg.metrics,
	}
	// Place pinned CTs first (Algorithm 2 lines 3-5), in id order for
	// determinism, routing TTs between pinned pairs as they close.
	pinned := make([]taskgraph.CTID, 0, len(pins))
	for ct := range pins {
		pinned = append(pinned, ct)
	}
	slices.Sort(pinned)
	for _, ct := range pinned {
		if err := st.place(ct, pins[ct]); err != nil {
			st.release()
			return nil, err
		}
	}
	return st, nil
}

// release adds the assignment's evaluation counts to the registry and
// hands st's scratch back to scratchPool, dropping its references to this
// assignment's inputs. st must not be used afterwards.
func (st *state) release() {
	sc := st.evalScratch
	st.evalScratch = nil
	st.metrics.Counter(metricGammaEvals).Add(float64(sc.gammaEvals))
	st.metrics.Counter(metricWidestHits).Add(float64(sc.cache.hits))
	st.metrics.Counter(metricWidestMisses).Add(float64(sc.cache.misses))
	sc.view.Caps = nil
	sc.cache.net, sc.cache.caps = nil, nil
	scratchPool.Put(sc)
}

// place commits CT ct to host and routes every TT between ct and an
// already-placed neighbor on the widest path given the loads placed so
// far. It is the mutation layer: the placement, the evaluation view and
// the widest-path cache all advance here, and nowhere else.
func (st *state) place(ct taskgraph.CTID, host network.NCPID) error {
	if err := st.p.PlaceCT(ct, host); err != nil {
		return err
	}
	st.unplaced--
	st.placed = append(st.placed, ct)
	st.view.ApplyCT(ct, host)
	st.changedLinks = st.changedLinks[:0]
	for _, ttID := range st.g.AdjacentTTs(ct) {
		tt := st.g.TT(ttID)
		other := tt.From
		if other == ct {
			other = tt.To
		}
		oHost := st.p.Host(other)
		if oHost < 0 {
			continue
		}
		route, bottleneck, relaxations, ok := st.scratch.path(st.net, st.caps, st.view.LoadLink, tt.Bits, st.p.Host(tt.From), st.p.Host(tt.To), st.route)
		if !ok {
			return fmt.Errorf("assign: no route for TT %q between NCPs %d and %d: %w",
				tt.Name, st.p.Host(tt.From), st.p.Host(tt.To), placement.ErrInfeasible)
		}
		st.route = route
		if st.span != nil {
			st.span.Event("route", map[string]any{
				"tt":          tt.Name,
				"from":        st.net.NCP(st.p.Host(tt.From)).Name,
				"to":          st.net.NCP(st.p.Host(tt.To)).Name,
				"hops":        int64(len(route)),
				"bottleneck":  obs.Float(bottleneck),
				"relaxations": int64(relaxations),
			})
		}
		if err := st.p.PlaceTT(ttID, route); err != nil {
			return err
		}
		if tt.Bits > 0 {
			st.changedLinks = append(st.changedLinks, route...)
		}
		st.view.ApplyTT(route, tt.Bits)
	}
	// Loading a link only shrinks its weight, so only trees whose edges
	// include a loaded link can change (see widestCache.invalidate).
	st.cache.invalidate(st.changedLinks)
	return nil
}

// gamma computes γ_{i,j} (eq. (2)): the bottleneck processing rate imposed
// by tentatively placing CT i on NCP j, combining j's residual computation
// capacity against its already co-located load plus i's requirement, and,
// for every *frontier* placed CT reachable from i, the widest path for the
// lightest TT between them. feasible=false means some such CT is
// network-unreachable from j.
//
// The frontier restriction sharpens the paper's ν_i: a placed CT i′ only
// imposes a link term if some task-graph path between i and i′ has no
// other placed CT in its interior — otherwise the stream between their
// hosts is already carried by previously routed TTs and eq. (2) would
// double-count it (e.g. charging a phantom edge->resize transport after
// denoise, between them, is already placed elsewhere). For pairs with a
// placed intermediary the paper's justification ("at least one TT of
// G(i,i′) will be placed on the path between j and j′") no longer holds.
func (st *state) gamma(ct taskgraph.CTID, host network.NCPID) (rate float64, feasible bool) {
	return st.gammaTerms(ct, host, st.linkTerms(ct, nil, &st.walk))
}

// linkTerm is one link contribution to γ for a CT: a placed counterpart
// (at oHost), the bits of the lightest TT between them (an index into the
// tree cache's sizes), and which way that TT flows — toPlaced when the
// counterpart is downstream of the CT, so the stream runs from the
// candidate host to oHost. With directed links the two directions see
// different bottlenecks. The terms of a CT are host-independent, so they
// are computed once per iteration and reused across the NCP scan.
type linkTerm struct {
	oHost    network.NCPID
	bits     int
	toPlaced bool
}

// linkTerms appends the γ link terms of ct against the current view to
// dst, walking the frontier on w.
func (st *state) linkTerms(ct taskgraph.CTID, dst []linkTerm, w *frontierWalk) []linkTerm {
	for _, other := range st.nu(ct, w) {
		ttID, ok := st.g.MinBitsTTBetween(ct, other)
		if !ok {
			continue
		}
		dst = append(dst, linkTerm{oHost: st.view.Host[other], bits: st.cache.ttBits[ttID], toPlaced: st.g.Precedes(ct, other)})
	}
	return dst
}

// gammaTerms is gamma with the host-independent link terms precomputed.
func (st *state) gammaTerms(ct taskgraph.CTID, host network.NCPID, terms []linkTerm) (rate float64, feasible bool) {
	st.gammaEvals++
	rate = st.view.RateWith(host, st.view.Req[ct])
	for _, term := range terms {
		if term.oHost == host {
			continue
		}
		var (
			bottleneck float64
			reachable  bool
		)
		switch {
		case !st.noCache:
			// The tree is rooted at the *placed* end, so one tree serves
			// every candidate host of the scan (and every CT sharing this
			// frontier term) instead of one tree per candidate; a stream
			// toward the placed end is searched against the link direction.
			bottleneck, reachable = st.cache.tree(term.oHost, term.bits, term.toPlaced, &st.scratch).bottleneck(host)
		case term.toPlaced:
			_, bottleneck, _, reachable = st.scratch.path(st.net, st.caps, st.view.LoadLink, st.cache.bits[term.bits], host, term.oHost, nil)
		default:
			_, bottleneck, _, reachable = st.scratch.path(st.net, st.caps, st.view.LoadLink, st.cache.bits[term.bits], term.oHost, host, nil)
		}
		if !reachable {
			return 0, false
		}
		if bottleneck < rate {
			rate = bottleneck
		}
	}
	return rate, true
}

// nu returns the placed CTs whose link terms enter γ for ct: the frontier
// set (walked on w) by default, or every placed reachable CT in literal-ν mode.
func (st *state) nu(ct taskgraph.CTID, w *frontierWalk) []taskgraph.CTID {
	if !st.literalNu {
		return st.frontierPlaced(ct, w)
	}
	var out []taskgraph.CTID
	for _, other := range st.placed {
		if st.g.Reachable(ct, other) {
			out = append(out, other)
		}
	}
	return out
}

// frontierPlaced returns the placed CTs reachable from ct along task-graph
// paths whose interior vertices are all unplaced, walking descendants and
// ancestors separately and stopping at the first placed CT on each branch.
// The result is w's, overwritten by the next walk on w.
func (st *state) frontierPlaced(ct taskgraph.CTID, w *frontierWalk) []taskgraph.CTID {
	w.out = w.out[:0]
	for _, down := range [2]bool{true, false} {
		// Reset the visited set before each direction: in a DAG the
		// descendant and ancestor cones are disjoint apart from ct itself,
		// but TT-level revisits within a cone are possible.
		w.seen = slices.Grow(w.seen[:0], st.g.NumCTs())[:st.g.NumCTs()]
		clear(w.seen)
		st.walkFrontier(w, ct, down)
	}
	return w.out
}

// frontierWalk is frontierPlaced's memory: the visited set and the result,
// reused by one walker at a time.
type frontierWalk struct {
	seen []bool
	out  []taskgraph.CTID
}

// walkFrontier appends to w.out the first placed CT on every branch below
// (down) or above cur that w.seen has not visited.
func (st *state) walkFrontier(w *frontierWalk, cur taskgraph.CTID, down bool) {
	tts := st.g.OutTTs(cur)
	if !down {
		tts = st.g.InTTs(cur)
	}
	for _, ttID := range tts {
		tt := st.g.TT(ttID)
		next := tt.To
		if !down {
			next = tt.From
		}
		if w.seen[next] {
			continue
		}
		w.seen[next] = true
		if st.view.Host[next] >= 0 {
			w.out = append(w.out, next)
			continue
		}
		st.walkFrontier(w, next, down)
	}
}

// bestHost returns j*_i = argmax_j γ_{i,j} for CT i with link terms terms,
// the γ value achieved, and whether any feasible host exists. Ties break
// toward the lower NCP id.
func (st *state) bestHost(ct taskgraph.CTID, terms []linkTerm) (network.NCPID, float64, bool) {
	best := network.NCPID(-1)
	bestRate := math.Inf(-1)
	for j := 0; j < st.net.NumNCPs(); j++ {
		rate, ok := st.gammaTerms(ct, network.NCPID(j), terms)
		if !ok {
			continue
		}
		if rate > bestRate {
			bestRate = rate
			best = network.NCPID(j)
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestRate, true
}

// bestHostNCPOnly picks the NCP maximizing the computation term of eq. (2)
// alone, ignoring transport tasks entirely (the GS/GRand host rule). A CT
// with no requirements lands on the lowest-id NCP. It is infeasible only
// when the network has no NCPs at all.
func (st *state) bestHostNCPOnly(ct taskgraph.CTID) (network.NCPID, bool) {
	best := network.NCPID(-1)
	bestRate := math.Inf(-1)
	for j := 0; j < st.net.NumNCPs(); j++ {
		rate := st.view.RateWith(network.NCPID(j), st.view.Req[ct])
		if rate > bestRate {
			bestRate = rate
			best = network.NCPID(j)
		}
	}
	return best, best >= 0
}

// scored is one CT's best-host result within a ranking iteration.
type scored struct {
	host     network.NCPID
	rate     float64
	feasible bool
}

// dynamicRankNext implements Algorithm 2 lines 6-16: every unplaced CT is
// scored by the bottleneck it would impose at its best host, and the CT
// with the smallest such bottleneck — the most constrained one — is placed
// first at that host; ties go to the lowest CT id. It returns the chosen
// CT, its host and its γ; the scores stay in st.cts/st.results until the
// next iteration.
func (st *state) dynamicRankNext() (taskgraph.CTID, network.NCPID, float64, error) {
	// Score the unplaced CTs in id order.
	st.cts, st.results = st.cts[:0], st.results[:0]
	for ct, host := range st.view.Host {
		if host < 0 {
			st.terms = st.linkTerms(taskgraph.CTID(ct), st.terms[:0], &st.walk)
			h, rate, feasible := st.bestHost(taskgraph.CTID(ct), st.terms)
			st.cts = append(st.cts, taskgraph.CTID(ct))
			st.results = append(st.results, scored{host: h, rate: rate, feasible: feasible})
		}
	}
	cts, results := st.cts, st.results

	bestCT := taskgraph.CTID(-1)
	bestHost := network.NCPID(-1)
	bestRate := math.Inf(1)
	for i, ct := range cts {
		r := results[i]
		if !r.feasible {
			return -1, -1, 0, fmt.Errorf("assign: CT %q (%d): %w", st.g.CT(ct).Name, ct, placement.ErrInfeasible)
		}
		if r.rate < bestRate {
			bestRate = r.rate
			bestCT = ct
			bestHost = r.host
		}
	}
	if bestCT < 0 {
		// Every remaining CT scored +Inf (no demands anywhere): place the
		// lowest-id one at the best host its scan already found — no
		// re-evaluation needed.
		bestCT = cts[0]
		bestHost = results[0].host
	}
	return bestCT, bestHost, bestRate, nil
}

// candidates renders the scores of the last ranking iteration: the best
// host and γ of every unplaced CT, in CT id order (the chosen CT is the
// minimum).
func (st *state) candidates() []map[string]any {
	out := make([]map[string]any, len(st.cts))
	for i, ct := range st.cts {
		r := st.results[i]
		out[i] = map[string]any{"ct": st.g.CT(ct).Name, "host": st.net.NCP(r.host).Name, "gamma": obs.Float(r.rate)}
	}
	return out
}
