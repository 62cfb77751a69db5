package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparcle/internal/scenario"
)

// infoOf is what GET /network would report for a scenario.
func infoOf(t *testing.T, f *scenario.File) *netInfo {
	t.Helper()
	data, err := json.Marshal(f.Network)
	if err != nil {
		t.Fatal(err)
	}
	var info netInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return &info
}

func stream(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	f := meshScenario(w.Mesh)
	var regions [][]string
	if w.Shards > 1 {
		netw, err := f.BuildNetwork()
		if err != nil {
			t.Fatal(err)
		}
		if regions, err = regionHosts(netw, w.Shards); err != nil {
			t.Fatal(err)
		}
	}
	g, err := newGenerator(infoOf(t, f), w.traffic, regions, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i := 0; i < n; i++ {
		out.Write(g.next().Body)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := stream(t, w, 7, 200), stream(t, w, 7, 200), stream(t, w, 8, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.Name)
		}
	}
}

// The mixed workload must keep best-effort flows out of every region a
// reservation can touch (see generator.pins), and cross about a third.
func TestMixedPinsSeparateReservationsFromBestEffort(t *testing.T) {
	w := workloadByName("mixed_shard4")
	f := meshScenario(w.Mesh)
	netw, err := f.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	regions, err := regionHosts(netw, w.Shards)
	if err != nil {
		t.Fatal(err)
	}
	regionOf := map[string]int{}
	for r, hosts := range regions {
		for _, h := range hosts {
			regionOf[h] = r
		}
	}
	g, err := newGenerator(infoOf(t, f), w.traffic, regions, 3)
	if err != nil {
		t.Fatal(err)
	}
	last := len(regions) - 1
	cross, gr, n := 0, 0, 4000
	for i := 0; i < n; i++ {
		req := g.next()
		var spec scenario.AppSpec
		if err := json.Unmarshal(req.Body, &spec); err != nil {
			t.Fatal(err)
		}
		src, snk := regionOf[spec.CTs[0].Host], regionOf[spec.CTs[len(spec.CTs)-1].Host]
		isGR := spec.QoS.Class == "guaranteed-rate"
		reserving := isGR || src != snk
		if reserving && (src == last || snk == last) {
			t.Fatalf("%s reserves capacity in the best-effort region: %s", req.Name, req.Body)
		}
		if !reserving && (src != last || snk != last) {
			t.Fatalf("%s is an intra-region best-effort flow outside the best-effort region: %s", req.Name, req.Body)
		}
		if src != snk {
			cross++
		}
		if isGR {
			gr++
		}
	}
	if share := float64(cross) / float64(n); math.Abs(share-w.CrossShare) > 0.03 {
		t.Errorf("cross-region share %.3f, want about %.3f", share, w.CrossShare)
	}
	if share := float64(gr) / float64(n); math.Abs(share-w.GRShare) > 0.03 {
		t.Errorf("guaranteed-rate share %.3f, want about %.3f", share, w.GRShare)
	}
}

func TestMesh16IsTheRepositorysMesh16(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "testdata", "mesh16.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got := meshScenario(16)
	if !reflect.DeepEqual(got.Network.NCPs, want.Network.NCPs) || !reflect.DeepEqual(got.Network.Links, want.Network.Links) {
		t.Error("meshScenario(16) differs from testdata/mesh16.json")
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.95: 8.6, 1: 9} {
		if got := percentile(append([]float64(nil), xs...), q); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestDueTimeLatencyAndLateness(t *testing.T) {
	due := time.Unix(100, 0)
	// Due at t, sent 3 ms late, answered 5 ms after it was due: the wait
	// for a free connection is part of the latency.
	if got := dueLatency(due, due.Add(5*time.Millisecond)); got != 5*time.Millisecond {
		t.Errorf("dueLatency = %v, want 5ms", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("lateness of an early dispatch = %v, want 0", got)
	}
}

// The calibrated clock: the median burst of a window against the nominal
// burst, to the frozen sensitivity; an empty window changes nothing; the
// on-CPU share of start-up cycles leaves the last, still running, cycle out.
func TestCalibratedClockArithmetic(t *testing.T) {
	t0 := time.Unix(100, 0)
	c := &calibrator{}
	for i, ns := range []float64{calibNominal, 2 * calibNominal, 2 * calibNominal, 2 * calibNominal, 9 * calibNominal} {
		c.at, c.ns = append(c.at, t0.Add(time.Duration(i)*time.Second)), append(c.ns, ns)
	}
	if got := c.burst(t0.Add(time.Second), t0.Add(3*time.Second)); got != 2*calibNominal {
		t.Errorf("median burst of the window = %v, want %v", got, 2*calibNominal)
	}
	if got, want := c.slowdown(t0.Add(time.Second), t0.Add(3*time.Second)), math.Pow(2, calibSensitivity); math.Abs(got-want) > 1e-12 {
		t.Errorf("slowdown = %v, want 2^%v = %v", got, calibSensitivity, want)
	}
	if got := c.slowdown(t0.Add(time.Hour), t0.Add(2*time.Hour)); got != 1 {
		t.Errorf("slowdown over a window without a burst = %v, want 1", got)
	}
	// Three cycles of 1 s; the first two used 0.5 s and 0.3 s of CPU.
	if got := onCPU([]float64{10, 10.5, 10.8}, []float64{1, 1, 1}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("onCPU = %v, want 0.4", got)
	}
	if got := onCPU([]float64{10, 13}, []float64{1, 1}); got != 1 {
		t.Errorf("onCPU of two processes busy at once = %v, want it capped at 1", got)
	}
	if got := onCPU([]float64{10}, []float64{1}); got != 1 {
		t.Errorf("onCPU of a single cycle = %v, want 1", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanAdmit, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: spanAssign, Start: 100, End: 400},
		{ID: 3, Parent: 1, Name: spanAssign, Start: 500, End: 600},
		{ID: 4, Name: spanEvict, Start: 2000, End: 2500},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 600, 2: 300, 3: 100, 4: 500}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestScrapeParsesThePrometheusText(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# HELP x y\nsparcle_a_total{k=\"1\"} 3\nsparcle_a_total{k=\"2\"} 4\nsparcle_b 2.5e-01\nsparcle_a_total_more 9\n"))
	}))
	defer ts.Close()
	p, err := scrape(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("sparcle_a_total"); got != 7 {
		t.Errorf("sum = %v, want 7 (a family is not a prefix of another's name)", got)
	}
	if got := p.max("sparcle_a_total"); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := p.sub(promSample{"sparcle_b": 0.05})["sparcle_b"]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("delta = %v, want 0.2", got)
	}
}

func writeRunFile(t *testing.T, name string, cells map[string]cell) string {
	t.Helper()
	f := runFile{Summary: map[string]map[string]cell{"place_bound": cells}}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gatedFixture is the end-to-end list TestCompareVerdicts judges by.
var gatedFixture = []metric{
	{Name: "goodput_adm_s", Unit: "adm/s", Better: "higher", Bound: 0.25},
	{Name: "admit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(v float64) cell { return cell{N: 5, Median: v, Q1: v * 0.99, Q3: v * 1.01} }
	base := writeRunFile(t, "a.json", map[string]cell{
		"goodput_adm_s": tight(1000), "admit_p50_ms": tight(1), "admit_p95_ms": tight(3),
		"fail_ratio": tight(0), "reject_ratio": tight(0.10),
	})
	cand := writeRunFile(t, "b.json", map[string]cell{
		"goodput_adm_s": tight(700),                      // higher is better: 30% lower is worse
		"admit_p50_ms":  tight(1.1),                      // 10% slower is inside the bound
		"admit_p95_ms":  {N: 5, Median: 3, Q1: 2, Q3: 4}, // spread wider than the bound
		"fail_ratio":    tight(0.002),                    // absolute: +0.002 > +0.001
		"reject_ratio":  tight(0.105),                    // absolute: +0.005 <= +0.01
	})
	var out bytes.Buffer
	err := compareFiles(&out, gatedFixture, base, cand)
	if err != errWorse {
		t.Fatalf("compareFiles error = %v, want errWorse", err)
	}
	want := map[string]string{
		"goodput_adm_s": verdictWorse, "admit_p50_ms": verdictOK, "admit_p95_ms": verdictUnresolved,
		"fail_ratio": verdictWorse, "reject_ratio": verdictOK,
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if v, ok := want[f[1]]; ok {
			if f[len(f)-1] != v {
				t.Errorf("%s: verdict %q, want %q\n%s", f[1], f[len(f)-1], v, line)
			}
			delete(want, f[1])
		}
	}
	if len(want) != 0 {
		t.Errorf("no row for %v in\n%s", want, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, gatedFixture, base, base); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
}

// BENCHMARK.json at the repository root loads, names this program's
// workloads, and states each one's frozen K and R in its why.
func TestBenchmarkJSONLoadsAndStatesTheFrozenConstants(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		why := sp.Workloads[i].Why
		for _, frozen := range []string{"K=" + strconv.Itoa(w.K), "R=" + strconv.Itoa(int(w.R)) + "/s"} {
			if !strings.Contains(why, frozen) {
				t.Errorf("%s: why does not state %s", w.Name, frozen)
			}
		}
	}
	gated := map[string]bool{}
	for _, m := range sp.EndToEnd {
		gated[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !gated["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// A short in-process pass of place_bound: the real server behind the
// handler wrapper and the algorithm decorator, no child processes.
func TestSmokePlaceBoundInProcess(t *testing.T) {
	w := workloadByName("place_bound")
	e := &env{workDir: t.TempDir()}
	res := &result{Metrics: map[string]float64{}, Info: map[string]float64{}}
	tr, err := tracedPass(e, w, 1, 300, 40, true, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 0 || res.Failed != 0 {
		t.Fatalf("problems %v, %d failed operations", res.Problems, res.Failed)
	}
	if tr.admits < 100 || tr.evicts != tr.admits {
		t.Errorf("%d admissions, %d evictions: want at least 100, and one eviction per admission", tr.admits, tr.evicts)
	}
	admit, _ := spanStats(tr.spans, spanAdmit, false)
	assigns, _ := spanStats(tr.spans, spanAssign, false)
	serial, _ := spanStats(tr.spans, spanAdmit, true)
	if len(admit) != tr.admits || len(assigns) < tr.admits || len(serial) == 0 {
		t.Errorf("%d admit spans, %d assign spans, %d serial admit spans for %d admissions", len(admit), len(assigns), len(serial), tr.admits)
	}
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if s.Name == spanAssign && s.Parent == 0 {
			t.Fatalf("assign span %d found no admission to belong to", s.ID)
		}
		if self[s.ID] < 0 {
			t.Fatalf("span %d has negative self time %v", s.ID, self[s.ID])
		}
	}
	m := map[string]float64{}
	if err := probes(e, w, tr, m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scenario.decode_build_us", "core.submit_us", "core.remove_us", "alloc.predict_us"} {
		if m[name] <= 0 {
			t.Errorf("probe metric %s = %v, want > 0", name, m[name])
		}
	}
}
