package core

import (
	"bytes"
	"errors"
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
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	s := New(net, WithMetrics(reg), WithTracer(tr))

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

	snap := reg.Snapshot()
	adm := snap["sparcle_admissions_total"]
	if got := findSeries(adm, map[string]string{"class": "guaranteed-rate", "outcome": "admitted"}); got == nil || *got.Value != 1 {
		t.Fatalf("GR admitted counter = %+v, want 1", got)
	}
	if got := findSeries(adm, map[string]string{"class": "best-effort", "outcome": "admitted"}); got == nil || *got.Value != 1 {
		t.Fatalf("BE admitted counter = %+v, want 1", got)
	}
	if got := findSeries(adm, map[string]string{"class": "guaranteed-rate", "outcome": "rejected"}); got == nil || *got.Value != 1 {
		t.Fatalf("GR rejected counter = %+v, want 1", got)
	}
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
	snap = reg.Snapshot()
	if got := findSeries(snap["sparcle_repairs_total"], map[string]string{"outcome": "repaired"}); got == nil || *got.Value != 1 {
		t.Fatalf("repair counter = %+v, want 1", got)
	}
	if got := snap["sparcle_fluctuations_total"]; len(got.Series) != 1 || *got.Series[0].Value != 1 {
		t.Fatalf("fluctuation counter = %+v, want 1", got)
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	apps := map[string]bool{}
	for _, ev := range events {
		typ, _ := ev["type"].(string)
		types[typ]++
		if app, _ := ev["app"].(string); app != "" {
			apps[app] = true
		}
	}
	for _, want := range []string{"ranking", "route", "admission", "repair", "fluctuation", "alloc"} {
		if types[want] == 0 {
			t.Fatalf("no %q events in trace; got %v", want, types)
		}
	}
	if !apps["gr"] || !apps["be"] {
		t.Fatalf("trace missing app context: %v", apps)
	}
}

// TestAllocTelemetryMetrics covers the incremental-solver metric series:
// warm solve counter, constraint-matrix nnz gauge, the per-mode cycle
// histogram, and the row-evaluation counter.
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
