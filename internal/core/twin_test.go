package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/obs"
)

// removeEager is Remove as this package ran it before a removal left its
// solve to the next reader: withdraw, re-solve at once, commit. It is the
// twin TestDeferredRemovalMatchesEagerTwin compares Remove against.
func (s *Scheduler) removeEager(name string) error {
	if !s.withdraw(name) {
		return fmt.Errorf("core: no admitted application named %q: %w", name, ErrNotFound)
	}
	err := s.reallocateBE()
	if s.commit == nil {
		return err
	}
	rec := &Record{Op: OpRemove, Outcome: "ok", Name: name}
	if err != nil {
		rec.Outcome = "error"
		rec.Reason = err.Error()
	}
	if cerr := s.commitRecord(rec); cerr != nil {
		return cerr
	}
	return err
}

// TestDeferredRemovalMatchesEagerTwin drives a scheduler and its eager
// twin (removeEager) through one seeded churn on mesh16 with reads
// interleaved at random. Placements must be identical at every step, and
// rates bit-identical at a read that directly follows a single removal
// (both solves start from the same warm state) and within 1e-9 relative
// otherwise (journaled, at every read). Unjournaled, the deferred scheduler runs no more solves than
// the twin; journaled, every removal settles at its record, so both
// solve at the same places and write byte-identical records.
func TestDeferredRemovalMatchesEagerTwin(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		for _, k := range []int{16, 256} {
			t.Run(fmt.Sprintf("K=%d/journaled=%v", k, journaled), func(t *testing.T) {
				deferredTwin(t, k, journaled)
			})
		}
	}
}

func deferredTwin(t *testing.T, k int, journaled bool) {
	const ops = 160
	rng := rand.New(rand.NewSource(int64(k)))
	net := beMesh(t, 16)
	dreg, ereg := obs.NewRegistry(), obs.NewRegistry()
	deferred, eager := New(net, WithMetrics(dreg)), New(net, WithMetrics(ereg))
	var drecs, erecs [][]byte
	if journaled {
		hook := func(out *[][]byte) CommitHook {
			return func(rec *Record) error {
				b, err := json.Marshal(rec)
				*out = append(*out, b)
				return err
			}
		}
		deferred.SetCommitHook(hook(&drecs))
		eager.SetCommitHook(hook(&erecs))
	}

	seq := 0
	var live []string
	admit := func(step int) {
		src, snk := network.NCPID(rng.Intn(16)), network.NCPID(rng.Intn(16))
		app := bePipeline(t, rng, 2+rng.Intn(7), src, snk)
		app.Name = fmt.Sprintf("app-%d", seq)
		seq++
		if rng.Intn(8) == 0 {
			// Capped, so that a reservation does not take a whole
			// bottleneck from the BE residents.
			r := 0.5 + rng.Float64()
			app.QoS = QoS{Class: GuaranteedRate, MinRate: r, RateCap: 2 * r, MinRateAvailability: 0.9, MaxPaths: 2}
		}
		dpa, derr := deferred.Submit(app)
		epa, eerr := eager.Submit(app)
		if SubmitOutcome(derr) != SubmitOutcome(eerr) {
			t.Fatalf("step %d: admit %s: %v, twin %v", step, app.Name, derr, eerr)
		}
		if derr != nil {
			if !errors.Is(derr, ErrRejected) {
				t.Fatalf("step %d: admit %s: %v", step, app.Name, derr)
			}
			return
		}
		// Placements never move once admitted, so comparing each
		// admission's paths and the resident order after every step
		// compares every placement at every step.
		samePaths(t, step, dpa, epa)
		live = append(live, app.Name)
	}
	remove := func(step int) {
		i := rng.Intn(len(live))
		name := live[i]
		live = slices.Delete(live, i, i+1)
		if err := deferred.Remove(name); err != nil {
			t.Fatalf("step %d: remove %s: %v", step, name, err)
		}
		if err := eager.removeEager(name); err != nil {
			t.Fatalf("step %d: twin remove %s: %v", step, name, err)
		}
	}
	// read settles the deferred scheduler through one of its readers
	// and compares every resident's rates with the twin's.
	read := func(step int, exact bool) {
		switch rng.Intn(3) {
		case 0:
			du, eu := deferred.Utility(), eager.Utility()
			if !closeRates(du, eu, exact) {
				t.Fatalf("step %d: utility %v, twin %v", step, du, eu)
			}
		case 1:
			if _, err := deferred.ExportSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
		dbe, ebe := deferred.BEApps(), eager.BEApps()
		for i := range dbe {
			for j := range dbe[i].Paths {
				d, e := dbe[i].Paths[j].Rate, ebe[i].Paths[j].Rate
				if !closeRates(d, e, exact) {
					t.Fatalf("step %d: %s path %d rate %v, twin %v (exact %v)", step, dbe[i].App.Name, j, d, e, exact)
				}
			}
		}
	}

	for len(live) < k {
		admit(-1)
	}
	// synced holds while both solvers carry bit-identical warm states. A
	// solve that folds removals the twin solved one by one ends a few ulps
	// away from the twin's; dropping both solvers realigns them, since
	// the next solve of each then starts cold from the same rows.
	synced, exactReads := true, 0
	for step := 0; step < ops; step++ {
		if !synced && deferred.unsolved == 0 && rng.Intn(4) == 0 {
			deferred.dropSolver()
			eager.dropSolver()
			synced = true
		}
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0:
			synced = synced && deferred.unsolved == 0
			admit(step)
		case r < 8:
			remove(step)
		default:
			// A burst of removals that only the next reader settles.
			remove(step)
			if len(live) > 0 {
				remove(step)
			}
		}
		sameResidents(t, step, deferred, eager)
		if rng.Intn(3) == 0 {
			// Journaled, both solve at the same places, so every read
			// is exact.
			synced = synced && deferred.unsolved <= 1
			exact := journaled || synced && deferred.unsolved == 1
			if exact {
				exactReads++
			}
			read(step, exact)
		}
	}
	read(ops, false)
	if exactReads == 0 {
		t.Fatal("no read directly followed a single removal")
	}

	dsolves, esolves := solveCount(dreg), solveCount(ereg)
	t.Logf("solves: %v deferred, %v eager; %d exact reads", dsolves, esolves, exactReads)
	switch {
	case journaled && dsolves != esolves:
		t.Fatalf("journaled: %v solves, twin %v: a removal must settle at its record", dsolves, esolves)
	case !journaled && dsolves >= esolves:
		t.Fatalf("%v solves, twin %v: removals folded into no later solve", dsolves, esolves)
	}
	if !slices.EqualFunc(drecs, erecs, func(a, b []byte) bool { return string(a) == string(b) }) {
		for i := range min(len(drecs), len(erecs)) {
			if string(drecs[i]) != string(erecs[i]) {
				t.Fatalf("record %d differs from the twin's:\n%s\n%s", i, drecs[i], erecs[i])
			}
		}
		t.Fatalf("%d records, twin %d", len(drecs), len(erecs))
	}
}

// closeRates compares two rates bit for bit when exact, else to 1e-9
// relative.
func closeRates(a, b float64, exact bool) bool {
	if exact || a == b {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// samePaths fails unless two admissions placed the same paths.
func samePaths(t *testing.T, step int, a, b *PlacedApp) {
	t.Helper()
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("step %d: %s has %d paths, twin %d", step, a.App.Name, len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		ea, erra := a.Paths[i].P.Encode()
		eb, errb := b.Paths[i].P.Encode()
		if erra != nil || errb != nil || !reflect.DeepEqual(ea, eb) {
			t.Fatalf("step %d: %s path %d placed %+v, twin %+v (%v, %v)", step, a.App.Name, i, ea, eb, erra, errb)
		}
	}
}

// sameResidents fails unless both schedulers hold the same residents in
// the same order. It reads the lists directly: a reader would settle.
func sameResidents(t *testing.T, step int, a, b *Scheduler) {
	t.Helper()
	names := func(list []*PlacedApp) []string {
		out := make([]string, len(list))
		for i, pa := range list {
			out[i] = pa.App.Name
		}
		return out
	}
	if !slices.Equal(names(a.gr), names(b.gr)) || !slices.Equal(names(a.be), names(b.be)) {
		t.Fatalf("step %d: residents differ from the twin's", step)
	}
}

func solveCount(reg *obs.Registry) float64 {
	return reg.Counter(metricAllocSolves, obs.L("solver", "proportional-fair")).Value()
}

// TestUnjournaledRemoveDefersItsSolve: an unjournaled removal's span has
// no alloc.solve child, and the solve of the next reader carries the
// number of removals it absorbed as its folded attribute.
func TestUnjournaledRemoveDefersItsSolve(t *testing.T) {
	net := twoBranchNet(t, 90, 0, 1e9, 0)
	st := obs.NewSpanTracer(obs.SpanOptions{FlightSize: 16})
	s := New(net)
	s.SetSpans(st)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := s.Submit(simpleApp(t, name, net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"b", "c"} {
		if err := s.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(simpleApp(t, "d", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
		t.Fatal(err)
	}
	var removes int
	var folded []any
	for _, trace := range st.Flight() {
		names := map[string]bool{}
		for _, r := range trace {
			names[r.Name] = true
			switch r.Name {
			case "core.remove":
				removes++
			case "alloc.solve":
				if r.Attrs["folded"] != nil {
					folded = append(folded, r.Attrs["folded"])
				}
			}
		}
		if names["core.remove"] && names["alloc.solve"] {
			t.Fatalf("an unjournaled core.remove solved: %+v", trace)
		}
	}
	if removes != 2 || len(folded) != 1 || folded[0] != int64(2) {
		t.Fatalf("%d core.remove spans, folded attrs %v; want 2 removals folded into one solve", removes, folded)
	}
}

// TestPendingRemovalSurvivesAnEmptyBatch: a batch that admits nothing
// does not solve, so the removal before it is still pending for the next
// reader, which solves it.
func TestPendingRemovalSurvivesAnEmptyBatch(t *testing.T) {
	net := twoBranchNet(t, 90, 0, 1e9, 0)
	reg := obs.NewRegistry()
	s := New(net, WithMetrics(reg))
	for _, name := range []string{"a", "b"} {
		if _, err := s.Submit(simpleApp(t, name, net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	before := solveCount(reg)
	if _, err := s.Submit(simpleApp(t, "bad", net, 10, QoS{Class: BestEffort})); err == nil {
		t.Fatal("a BE app with no priority was admitted")
	}
	if got := solveCount(reg); got != before || s.unsolved != 1 {
		t.Fatalf("an empty batch solved (%v -> %v solves, %d removals pending)", before, got, s.unsolved)
	}
	if got := s.BEApps()[0].TotalRate(); math.Abs(got-9) > 0.05 || solveCount(reg) != before+1 {
		t.Fatalf("rate after the pending removal settled = %v, solves %v -> %v", got, before, solveCount(reg))
	}
}
