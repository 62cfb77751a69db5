package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry builds a registry with one of everything, with fixed
// values, for deterministic exposition tests.
func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.SetHelp("sparcle_admissions_total", "Total admission decisions by class and outcome.")
	r.SetHelp("sparcle_placement_seconds", "Latency of admission control (Submit).")
	r.SetHelp("sparcle_app_allocated_rate", "Current total allocated rate per admitted application.")
	r.Counter("sparcle_admissions_total", L("class", "best-effort"), L("outcome", "admitted")).Add(3)
	r.Counter("sparcle_admissions_total", L("class", "best-effort"), L("outcome", "rejected")).Inc()
	r.Counter("sparcle_admissions_total", L("class", "guaranteed-rate"), L("outcome", "admitted")).Inc()
	r.Gauge("sparcle_app_allocated_rate", L("app", "face-detection")).Set(0.4018)
	r.Gauge("sparcle_app_allocated_rate", L("app", `weird"name\with`+"\n")).Set(1)
	h := r.Histogram("sparcle_placement_seconds", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0004, 0.0042, 0.0023, 0.09, 2.5} {
		h.Observe(v)
	}
	// A help-only family must not appear in the exposition.
	r.SetHelp("sparcle_unused", "Never instantiated.")
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	snap := fixtureRegistry().Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]FamilySnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	adm, ok := back["sparcle_admissions_total"]
	if !ok || adm.Type != "counter" || len(adm.Series) != 3 {
		t.Fatalf("admissions snapshot = %+v", adm)
	}
	hist := back["sparcle_placement_seconds"]
	if hist.Type != "histogram" || len(hist.Series) != 1 {
		t.Fatalf("histogram snapshot = %+v", hist)
	}
	s := hist.Series[0]
	if s.Count == nil || *s.Count != 5 {
		t.Fatalf("histogram count = %+v", s.Count)
	}
	if s.Buckets["+Inf"] != 5 || s.Buckets["0.01"] != 3 {
		t.Fatalf("histogram buckets = %+v", s.Buckets)
	}
	if _, ok := back["sparcle_unused"]; ok {
		t.Fatal("help-only family leaked into snapshot")
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	c.Inc()
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v", got)
	}
	// Same (name, labels) in any label order resolves to one series.
	a := r.Counter("labeled", L("x", "1"), L("y", "2"))
	b := r.Counter("labeled", L("y", "2"), L("x", "1"))
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("label order split the series: %v vs %v", a.Value(), b.Value())
	}
	g := r.Gauge("g")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} { // 1 is inclusive in le="1"
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot()["h"].Series[0]
	if snap.Buckets["1"] != 2 || snap.Buckets["10"] != 3 || snap.Buckets["+Inf"] != 4 {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
}

func TestDeleteSeries(t *testing.T) {
	r := NewRegistry()
	r.Gauge("rate", L("app", "a")).Set(1)
	r.Gauge("rate", L("app", "b")).Set(2)
	r.DeleteSeries("rate", L("app", "a"))
	r.DeleteSeries("rate", L("app", "missing")) // no-op
	r.DeleteSeries("missing")                   // no-op
	series := r.Snapshot()["rate"].Series
	if len(series) != 1 || series[0].Labels["app"] != "b" {
		t.Fatalf("series after delete = %+v", series)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.SetHelp("x", "y")
	r.Counter("c", L("a", "b")).Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	r.DeleteSeries("c")
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %v", v)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("m").Inc()
	r.Gauge("m").Set(1)
}

// TestRegistryParallelHammer exercises every registry operation from
// many goroutines; run under -race it is the concurrency proof for the
// first deliberately concurrent code in the repository.
func TestRegistryParallelHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			app := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				r.Counter("hits", L("worker", app)).Inc()
				r.Gauge("depth", L("worker", app)).Set(float64(i))
				r.Histogram("lat", []float64{0.25, 0.5, 0.75}, L("worker", app)).Observe(float64(i%100) / 100)
				if i%50 == 0 {
					r.DeleteSeries("depth", L("worker", app))
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("hits", L("worker", l)).Value()
	}
	if total != workers*iters {
		t.Fatalf("lost increments: %v != %v", total, workers*iters)
	}
	var lat uint64
	for _, l := range []string{"a", "b", "c", "d"} {
		lat += r.Histogram("lat", nil, L("worker", l)).Count()
	}
	if lat != workers*iters {
		t.Fatalf("lost observations: %v != %v", lat, workers*iters)
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		1e6:          "1e+06",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

// TestNilRegistryAllocationFree pins that telemetry calls on a nil registry
// (the untelemetered scheduler configuration) are free: no per-call
// allocations on the hot allocation path.
func TestNilRegistryAllocationFree(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("sparcle_alloc_warm_solves_total").Inc()
		r.Gauge("sparcle_alloc_rows_nnz").Set(42)
		r.Histogram("sparcle_alloc_solve_cycles", nil, L("mode", "warm")).Observe(7)
		r.Counter("sparcle_alloc_row_evals_total").Add(120)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry telemetry allocates %v per run, want 0", allocs)
	}
}

// TestSeriesLookupAllocationFree pins the per-request lookups of the
// serving path — labels in key order, nothing to escape — at zero
// allocations once the series exists.
func TestSeriesLookupAllocationFree(t *testing.T) {
	r := NewRegistry()
	lookups := func() {
		r.Counter("sparcle_http_requests_total", L("method", "POST")).Inc()
		r.Counter("sparcle_admissions_total", L("class", "best-effort"), L("outcome", "admitted")).Inc()
		r.Histogram("sparcle_placement_seconds", nil, L("class", "best-effort")).Observe(1e-3)
		r.Gauge("sparcle_alloc_rows_nnz").Set(42)
	}
	lookups() // create the series
	if allocs := testing.AllocsPerRun(1000, lookups); allocs != 0 {
		t.Fatalf("series lookups allocate %v per run, want 0", allocs)
	}
}

// TestLabelKeyCanonical checks that the fast path and the sorting,
// escaping path render one key for one label set.
func TestLabelKeyCanonical(t *testing.T) {
	if got, want := labelKey([]Label{L("outcome", "x"), L("class", "y")}), `class="y",outcome="x"`; got != want {
		t.Fatalf("unordered labels: key %q, want %q", got, want)
	}
	if got, want := labelKey([]Label{L("app", "a\"b\\c\n")}), `app="a\"b\\c\n"`; got != want {
		t.Fatalf("escaped label: key %q, want %q", got, want)
	}
	r := NewRegistry()
	r.Counter("c", L("b", "2"), L("a", "1")).Inc()
	r.Counter("c", L("a", "1"), L("b", "2")).Inc()
	if series := r.Snapshot()["c"].Series; len(series) != 1 || *series[0].Value != 2 {
		t.Fatalf("call-site label order split the series: %+v", series)
	}
}

// TestReplaceGauges: a replaced family holds exactly the new samples,
// other families keep theirs, and a concurrent scrape sees each
// replacement whole — two series at 1 or three at 2, never a mix.
func TestReplaceGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("rate", L("app", "stale")).Set(9)
	r.Gauge("other", L("app", "a")).Set(5)
	small := []Sample{{Labels: []Label{L("app", "a")}, Value: 1}, {Labels: []Label{L("app", "b")}, Value: 1}}
	large := []Sample{{Labels: []Label{L("app", "c")}, Value: 2}, {Labels: []Label{L("app", "d")}, Value: 2}, {Labels: []Label{L("app", "e")}, Value: 2}}
	r.ReplaceGauges("rate", small)
	var left []string
	for _, s := range r.Snapshot()["rate"].Series {
		left = append(left, s.Labels["app"])
	}
	if want := []string{"a", "b"}; !slices.Equal(left, want) {
		t.Fatalf("rate series after ReplaceGauges = %v, want %v", left, want)
	}
	if got := r.Gauge("other", L("app", "a")).Value(); got != 5 {
		t.Fatalf("ReplaceGauges reached into another family: %v", got)
	}
	r.ReplaceGauges("rate", nil)
	if _, ok := r.Snapshot()["rate"]; ok {
		t.Fatal("an emptied family is still exposed")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				r.ReplaceGauges("rate", small)
			} else {
				r.ReplaceGauges("rate", large)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		series := r.Snapshot()["rate"].Series
		if len(series) == 0 {
			continue
		}
		want := map[int]float64{2: 1, 3: 2}[len(series)]
		for _, s := range series {
			if *s.Value != Float(want) {
				t.Errorf("scrape saw a half-replaced family: %+v", series)
				break
			}
		}
	}
	close(stop)
	wg.Wait()

	defer func() {
		if recover() == nil {
			t.Fatal("replacing a counter family with gauges did not panic")
		}
	}()
	var nilReg *Registry
	nilReg.ReplaceGauges("rate", small)
	r.Counter("hits").Inc()
	r.ReplaceGauges("hits", small)
}
