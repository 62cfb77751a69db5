package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// metricsText is the registry's Prometheus exposition.
func metricsText(t testing.TB, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// appSeries returns the per-app rate and per-class count samples of the
// exposition, in its (sorted) order.
func appSeries(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, metricAppRate+"{") || strings.HasPrefix(line, metricAppsAdmitted+"{") {
			out = append(out, line)
		}
	}
	return out
}

// assertPublished checks that the exposition holds exactly the residents'
// rate series, each at the resident's current total rate, and the class
// counts — what /metrics must say at every operation boundary.
func assertPublished(t *testing.T, step string, s *Scheduler, reg *obs.Registry) {
	t.Helper()
	var want []string
	for _, pa := range append(s.GRApps(), s.BEApps()...) {
		want = append(want, fmt.Sprintf("%s{app=%q,class=%q} %s", metricAppRate,
			pa.App.Name, pa.App.QoS.Class.String(), strconv.FormatFloat(pa.TotalRate(), 'g', -1, 64)))
	}
	sort.Strings(want)
	want = append(want,
		fmt.Sprintf("%s{class=%q} %d", metricAppsAdmitted, BestEffort.String(), len(s.BEApps())),
		fmt.Sprintf("%s{class=%q} %d", metricAppsAdmitted, GuaranteedRate.String(), len(s.GRApps())))
	got := appSeries(metricsText(t, reg))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: /metrics disagrees with the resident set\ngot:\n  %s\nwant:\n  %s",
			step, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func rateOf(t *testing.T, reg *obs.Registry, app string) (float64, bool) {
	t.Helper()
	for _, line := range appSeries(metricsText(t, reg)) {
		if strings.HasPrefix(line, metricAppRate+`{app="`+app+`"`) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestRejectedBERollbackPublishes covers a rejection after the app joined
// the resident list. The smallest positive priority split over two
// availability paths underflows to a zero flow weight, which the
// incremental solve and then the cold fallback both refuse, so submitBE
// rolls back and re-solves for the incumbents.
func TestRejectedBERollbackPublishes(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0.1)
	reg := obs.NewRegistry()
	s := New(net, WithMetrics(reg))
	if _, err := s.Submit(simpleApp(t, "be1", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
		t.Fatal(err)
	}
	before, _ := rateOf(t, reg, "be1")

	_, err := s.Submit(simpleApp(t, "tiny", net, 10, QoS{
		Class: BestEffort, Priority: math.SmallestNonzeroFloat64, Availability: 0.9, MaxPaths: 2,
	}))
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "invalid weight") {
		t.Fatalf("underflowing BE: err = %v, want ErrRejected from the solver", err)
	}
	assertPublished(t, "rejected BE rollback", s, reg)
	if after, ok := rateOf(t, reg, "be1"); !ok || after != before || len(s.BEApps()) != 1 {
		t.Fatalf("rollback left be1 at %v (was %v) among %d residents", after, before, len(s.BEApps()))
	}
}

// TestRateGaugeLifecycle walks one scheduler through every route by which
// an application joins or leaves the resident set and holds /metrics to
// the resident set after each.
func TestRateGaugeLifecycle(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	reg := obs.NewRegistry()
	var records []*Record
	s := New(net, WithMetrics(reg))
	s.SetCommitHook(func(rec *Record) error {
		records = append(records, roundTrip(t, rec))
		return nil
	})
	assertPublished(t, "empty", s, reg)

	be := func(name string, prio float64) App {
		return simpleApp(t, name, net, 10, QoS{Class: BestEffort, Priority: prio})
	}
	if _, err := s.Submit(be("be1", 1)); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "admit", s, reg)
	alone, _ := rateOf(t, reg, "be1")

	// A second admission re-solves: the bound gauge of be1 must follow.
	if _, err := s.Submit(be("be2", 3)); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "re-solve", s, reg)
	if shared, _ := rateOf(t, reg, "be1"); !(shared < alone) {
		t.Fatalf("be1 gauge did not follow the re-solve: %v alone, %v shared", alone, shared)
	}

	if err := s.Remove("be2"); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "remove", s, reg)
	if _, ok := rateOf(t, reg, "be2"); ok {
		t.Fatal("be2 series survived its removal")
	}

	// Refused at the door: a NaN priority never joins the resident list.
	if _, err := s.Submit(be("nan", math.NaN())); err == nil {
		t.Fatal("NaN-priority BE admitted")
	}
	assertPublished(t, "refused BE", s, reg)

	// A batch with one rejection publishes the admitted ones only.
	batch := []App{
		be("b1", 1),
		simpleApp(t, "bbig", net, 10, QoS{Class: GuaranteedRate, MinRate: 1e9, MinRateAvailability: 0.9}),
		be("b2", 2),
	}
	results, err := s.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !errors.Is(results[1].Err, ErrRejected) || results[2].Err != nil {
		t.Fatalf("batch verdicts = %v, %v, %v", results[0].Err, results[1].Err, results[2].Err)
	}
	assertPublished(t, "batch with one rejection", s, reg)

	// A GR app, broken by a fluctuation. The first repair has nowhere to
	// go and restores it; the second moves it.
	if _, err := s.Submit(simpleApp(t, "gr", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 2, MinRateAvailability: 0.9, RateCap: 2, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "admit GR", s, reg)
	m1, _ := net.NCPIDByName("m1")
	m2, _ := net.NCPIDByName("m2")
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.001, placement.NCPElement(m2): 0.001}); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "fluctuation", s, reg)
	if _, err := s.Repair("gr"); !errors.Is(err, ErrRejected) {
		t.Fatalf("repair on a dead network: err = %v, want ErrRejected", err)
	}
	assertPublished(t, "failed repair", s, reg)
	if v, ok := rateOf(t, reg, "gr"); !ok || v != 2 {
		t.Fatalf("restored GR app's gauge = %v, %v; want 2", v, ok)
	}
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.001}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair("gr"); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "repair", s, reg)
	if err := s.Remove("gr"); err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "remove GR", s, reg)

	// A follower applying the committed records one at a time agrees with
	// its own resident set after each, and with the leader at the end.
	freg := obs.NewRegistry()
	follower := New(net, WithMetrics(freg))
	for i, rec := range records {
		if err := follower.ApplyCommitted(rec); err != nil {
			t.Fatalf("ApplyCommitted %d (%s): %v", i, rec.Op, err)
		}
		assertPublished(t, fmt.Sprintf("follower after record %d (%s %s)", i, rec.Op, rec.Name), follower, freg)
	}
	if got, want := appSeries(metricsText(t, freg)), appSeries(metricsText(t, reg)); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("follower /metrics differs from the leader's\nfollower: %v\nleader:   %v", got, want)
	}

	// Restore from snapshot + tail onto a fresh registry.
	snap, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	mark := len(records)
	if _, err := s.Submit(be("late", 1)); err != nil {
		t.Fatal(err)
	}
	rreg := obs.NewRegistry()
	restored, err := Rebuild(net, snap, records[mark:], WithMetrics(rreg))
	if err != nil {
		t.Fatal(err)
	}
	assertPublished(t, "restore", restored, rreg)
	if _, ok := rateOf(t, rreg, "late"); !ok {
		t.Fatal("restored scheduler does not publish the replayed admission")
	}
}

// TestRebuildRetiresPredecessorSeries: a scheduler rebuilt onto the
// registry of the one it replaces (the server's restore after a failed
// propose, a follower materializing) leaves exactly its own residents'
// series, while another scheduler on the registry keeps its own.
func TestRebuildRetiresPredecessorSeries(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	reg := obs.NewRegistry()
	be := func(name string) App { return simpleApp(t, name, net, 10, QoS{Class: BestEffort, Priority: 1}) }
	var records []*Record
	a := New(net, WithMetrics(reg))
	a.SetCommitHook(func(rec *Record) error {
		records = append(records, roundTrip(t, rec))
		return nil
	})
	if _, err := a.Submit(be("kept")); err != nil {
		t.Fatal(err)
	}
	committed := len(records)
	// X is admitted in memory but never becomes part of the rebuilt state.
	if _, err := a.Submit(be("X")); err != nil {
		t.Fatal(err)
	}

	// Another scheduler on the same registry, over other NCPs — what the
	// regions of a sharded deployment are to each other.
	sibNet := meshNet(t)
	sibling := New(sibNet, WithMetrics(reg))
	inst, err := workload.Generate(workload.GenConfig{
		Shape: workload.ShapeLinear, Topology: workload.TopoMesh, Regime: workload.Balanced, NumNCPs: 6,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.Submit(App{
		Name: "sib", Graph: inst.Graph, Pins: workload.PinRandomEnds(inst.Graph, sibNet, rand.New(rand.NewSource(4))),
		QoS: QoS{Class: BestEffort, Priority: 1},
	}); err != nil {
		t.Fatal(err)
	}

	empty, err := Rebuild(net, nil, nil, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.BEApps()) != 0 {
		t.Fatal("rebuild from nothing has residents")
	}
	text := metricsText(t, reg)
	if strings.Contains(text, metricAppRate+`{app="X"`) || strings.Contains(text, metricAppRate+`{app="kept"`) {
		t.Fatalf("series of the replaced scheduler survived the rebuild:\n%s", strings.Join(appSeries(text), "\n"))
	}
	if !strings.Contains(text, metricAppRate+`{app="sib"`) {
		t.Fatal("rebuild deleted a sibling scheduler's series")
	}

	b, err := Rebuild(net, nil, records[:committed], WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	text = metricsText(t, reg)
	if strings.Contains(text, metricAppRate+`{app="X"`) {
		t.Fatal("uncommitted X is on /metrics after the rebuild")
	}
	if v, ok := rateOf(t, reg, "kept"); !ok || v != b.BEApps()[0].TotalRate() {
		t.Fatalf("rebuilt resident's gauge = %v, %v; want %v", v, ok, b.BEApps()[0].TotalRate())
	}
	// The rebuilt scheduler owns the series from here on.
	if err := b.Remove("kept"); err != nil {
		t.Fatal(err)
	}
	if _, ok := rateOf(t, reg, "kept"); ok {
		t.Fatal("series survived removal from the rebuilt scheduler")
	}
}

// TestChurnMetricsGolden runs a scripted 200-operation churn — every
// operation kind, rejections included — and compares /metrics line for
// line with the text the same script produced before rate gauges were
// bound to residents (testdata/churn_metrics.golden, written at d207421;
// its two outcome="rejected" lines were rewritten when SubmitBatch began
// to count the rejections inside a batch, 28 in this script, and its
// sparcle_assign_parallelism family was dropped with the scoring worker
// pool, and its sparcle_alloc_row_evals_total line fell from 25104 to 9508
// when the BE solve began to skip rows certified slack). Families that
// hold wall-clock time are left out.
func TestChurnMetricsGolden(t *testing.T) {
	net := meshNet(t)
	script := churnScript(t, rand.New(rand.NewSource(2024)), net, 200)
	reg := obs.NewRegistry()
	s := New(net, WithMetrics(reg))
	for _, op := range script {
		applyOp(t, s, op)
	}
	if len(s.BEApps()) == 0 || len(s.GRApps()) == 0 {
		t.Fatalf("script ended with %d GR / %d BE residents; want both classes", len(s.GRApps()), len(s.BEApps()))
	}
	var lines []string
	for _, line := range strings.Split(metricsText(t, reg), "\n") {
		if !strings.Contains(line, "_seconds") {
			lines = append(lines, line)
		}
	}
	got := strings.Join(lines, "\n")
	const golden = "testdata/churn_metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("/metrics line %d differs from the golden text\ngot:  %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestServedChurnAllocsIndependentOfK pins the tentpole: with a registry
// attached, what one Remove + Submit allocates does not grow with the
// resident set (the solver's own scratch is reused, footprints and gauges
// live on the residents).
func TestServedChurnAllocsIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: the race detector changes allocation counts")
	}
	rng := rand.New(rand.NewSource(9))
	gen := func() *workload.Instance {
		inst, err := workload.Generate(workload.GenConfig{
			Shape: workload.ShapeLinear, Topology: workload.TopoMesh, Regime: workload.Balanced, NumNCPs: 12,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	net := gen().Net
	tmpl := gen()
	app := App{Graph: tmpl.Graph, Pins: workload.PinRandomEnds(tmpl.Graph, net, rng),
		QoS: QoS{Class: BestEffort, Priority: 1, MaxPaths: 1}}
	perCycle := func(k int) float64 {
		s := New(net, WithMetrics(obs.NewRegistry()))
		seq := 0
		admit := func() {
			a := app
			a.Name = "app-" + strconv.Itoa(seq)
			a.QoS.Priority = 0.5 + float64(seq%7)
			seq++
			if _, err := s.Submit(a); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			admit()
		}
		oldest := 0
		cycle := func() {
			if err := s.Remove("app-" + strconv.Itoa(oldest)); err != nil {
				t.Fatal(err)
			}
			oldest++
			admit()
		}
		for i := 0; i < 8; i++ {
			cycle() // let scratch slices reach their steady size
		}
		return testing.AllocsPerRun(50, cycle)
	}
	small, large := perCycle(16), perCycle(256)
	t.Logf("allocations per Remove+Submit: %.0f at K=16, %.0f at K=256", small, large)
	if large > small+32 {
		t.Fatalf("one Remove+Submit allocates %.0f at K=256 against %.0f at K=16: per-operation bookkeeping grows with the resident set", large, small)
	}
}
