package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"sparcle/internal/obs"
	"sparcle/internal/placement"
)

// findSeries returns the series with the given label subset, or nil.
func findSeries(fam obs.FamilySnapshot, want map[string]string) *obs.SeriesSnapshot {
	for i, s := range fam.Series {
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return &fam.Series[i]
		}
	}
	return nil
}

func TestSchedulerTelemetry(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	reg := obs.NewRegistry()
	s := New(net, WithMetrics(reg))
	st := obs.NewSpanTracer(obs.SpanOptions{})
	s.SetSpans(st)

	if _, err := s.Submit(simpleApp(t, "gr", net, 10, QoS{Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(simpleApp(t, "be", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
		t.Fatal(err)
	}
	// A rejected submission (impossible min rate) must count as rejected.
	_, err := s.Submit(simpleApp(t, "big", net, 10, QoS{Class: GuaranteedRate, MinRate: 1e9, MinRateAvailability: 0.9}))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}

	// The gauges are rendered from the residents, as a scrape does.
	scrape(t, s, reg)
	snap := reg.Snapshot()
	lat := snap["sparcle_placement_seconds"]
	if got := findSeries(lat, map[string]string{"class": "guaranteed-rate"}); got == nil || *got.Count != 2 {
		t.Fatalf("GR placement histogram = %+v, want count 2", got)
	}
	rate := snap["sparcle_app_allocated_rate"]
	if got := findSeries(rate, map[string]string{"app": "gr"}); got == nil || *got.Value <= 0 {
		t.Fatalf("gr rate gauge = %+v, want > 0", got)
	}
	if got := findSeries(rate, map[string]string{"app": "be"}); got == nil || *got.Value <= 0 {
		t.Fatalf("be rate gauge = %+v, want > 0", got)
	}
	if got := findSeries(snap["sparcle_apps_admitted"], map[string]string{"class": "guaranteed-rate"}); got == nil || *got.Value != 1 {
		t.Fatalf("GR admitted gauge = %+v, want 1", got)
	}

	// Withdrawing an app must retire its rate gauge.
	if err := s.Remove("be"); err != nil {
		t.Fatal(err)
	}
	scrape(t, s, reg)
	snap = reg.Snapshot()
	if got := findSeries(snap["sparcle_app_allocated_rate"], map[string]string{"app": "be"}); got != nil {
		t.Fatalf("be rate gauge survived removal: %+v", got)
	}

	// Kill m1 and repair the GR app onto m2.
	m1, _ := net.NCPIDByName("m1")
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair("gr"); err != nil {
		t.Fatal(err)
	}
	// The logical verdicts are counted by the router that serves the
	// applications, once however many regions one spans: a scheduler
	// counts none of them.
	snap = reg.Snapshot()
	for _, name := range []string{"sparcle_admissions_total", "sparcle_repairs_total", "sparcle_fluctuations_total"} {
		if got, ok := snap[name]; ok {
			t.Fatalf("a scheduler wrote the router's verdict counter %s: %+v", name, got)
		}
	}

	// Every decision rides its operation's span: the verdicts, the
	// ranked picks with their routes, the repair, the violated
	// reservation and the solver statistics.
	ops := map[string][]obs.SpanRecord{}
	ranked, routes := 0, 0
	for _, trace := range st.Flight() {
		for _, r := range trace {
			switch r.Name {
			case "batch.submit", "core.repair", "core.fluctuation", "alloc.solve":
				ops[r.Name] = append(ops[r.Name], r)
			case "assign.rank":
				if r.Attrs["ct"] != nil && len(r.Attrs["candidates"].([]map[string]any)) > 0 {
					ranked++
				}
			case "assign.place":
				for _, ev := range r.Events {
					if ev.Name == "route" {
						routes++
					}
				}
			}
		}
	}
	if ranked == 0 || routes == 0 {
		t.Fatalf("ranked picks %d, route events %d", ranked, routes)
	}
	verdicts := map[string]map[string]any{}
	for _, r := range ops["batch.submit"] {
		verdicts[r.Attrs["app"].(string)] = r.Attrs
	}
	if v := verdicts["gr"]; v["outcome"] != "admitted" || v["class"] != "guaranteed-rate" || v["paths"] != int64(1) || !(v["rate"].(obs.Float) > 0) {
		t.Fatalf("gr verdict = %v", v)
	}
	if v := verdicts["be"]; v["outcome"] != "admitted" || !(v["availability"].(obs.Float) > 0) {
		t.Fatalf("be verdict = %v", v)
	}
	if v := verdicts["big"]; v["outcome"] != "rejected" || !strings.Contains(v["reason"].(string), "min-rate availability") {
		t.Fatalf("big verdict = %v", v)
	}
	if r := ops["core.repair"]; len(r) != 1 || r[0].Attrs["outcome"] != "repaired" || r[0].Attrs["rate"] == nil {
		t.Fatalf("repair spans = %+v", r)
	}
	if f := ops["core.fluctuation"]; len(f) != 1 || f[0].Attrs["elements"] != int64(1) || !slices.Equal(f[0].Attrs["violatedGR"].([]string), []string{"gr"}) {
		t.Fatalf("fluctuation spans = %+v", f)
	}
	for _, r := range ops["alloc.solve"] {
		if r.Attrs["converged"] != true || r.Attrs["rows"] == nil || r.Attrs["nnz"] == nil || r.Attrs["rowEvals"] == nil {
			t.Fatalf("solve attrs = %v", r.Attrs)
		}
	}
	if len(ops["alloc.solve"]) == 0 {
		t.Fatal("no alloc.solve span")
	}
}

// TestAllocTelemetryMetrics covers the incremental-solver metric series:
// warm solve counter, constraint-matrix nnz gauge (rendered at scrape),
// the per-mode cycle histogram, and the row-evaluation counter.
func TestAllocTelemetryMetrics(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	reg := obs.NewRegistry()
	s := New(net, WithMetrics(reg))

	if _, err := s.Submit(simpleApp(t, "be1", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(simpleApp(t, "be2", net, 10, QoS{Class: BestEffort, Priority: 2})); err != nil {
		t.Fatal(err)
	}

	scrape(t, s, reg)
	snap := reg.Snapshot()
	warm := findSeries(snap[metricWarmSolves], nil)
	if warm == nil || *warm.Value < 1 {
		t.Fatalf("warm solve counter = %+v, want >= 1 (second admission should warm-start)", warm)
	}
	nnz := findSeries(snap[metricAllocNNZ], nil)
	if nnz == nil || *nnz.Value <= 0 {
		t.Fatalf("nnz gauge = %+v, want > 0", nnz)
	}
	cycles := snap[metricAllocCycles]
	cold := findSeries(cycles, map[string]string{"mode": "cold"})
	if cold == nil || *cold.Count < 1 {
		t.Fatalf("cold cycle histogram = %+v, want count >= 1 (first admission is cold)", cold)
	}
	warmH := findSeries(cycles, map[string]string{"mode": "warm"})
	if warmH == nil || *warmH.Count < 1 {
		t.Fatalf("warm cycle histogram = %+v, want count >= 1", warmH)
	}
	// Every cycle evaluates every priced row at least once.
	evals := findSeries(snap[metricAllocRowEvals], nil)
	if evals == nil || *evals.Value < *cold.Sum+*warmH.Sum {
		t.Fatalf("row-evals counter = %+v, want >= the %v cycles run", evals, *cold.Sum+*warmH.Sum)
	}
}
