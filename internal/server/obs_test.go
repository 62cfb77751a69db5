package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sparcle/internal/journal"
	"sparcle/internal/obs"
)

// TestMetricsEndToEnd drives a full application lifecycle over HTTP and
// asserts that /metrics reflects every step: admission counters by class
// and outcome, the placement latency histogram, repair and fluctuation
// counters, and per-app allocated-rate gauges that disappear on withdrawal.
func TestMetricsEndToEnd(t *testing.T) {
	ts, _ := testServer(t)

	resp, _ := do(t, http.MethodPost, ts.URL+"/apps",
		appJSON("g", "guaranteed-rate", `, "minRate": 5, "minRateAvailability": 0.9, "maxPaths": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit GR: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps", appJSON("b", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit BE: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps",
		appJSON("big", "guaranteed-rate", `, "minRate": 1e9, "minRateAvailability": 0.9`))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("oversized GR: %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/fluctuation", `{"scale": {"ncp:m1": 0}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("fluctuation: %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/apps/g/repair", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %d", resp.StatusCode)
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`sparcle_admissions_total{class="guaranteed-rate",outcome="admitted"} 1`,
		`sparcle_admissions_total{class="best-effort",outcome="admitted"} 1`,
		`sparcle_admissions_total{class="guaranteed-rate",outcome="rejected"} 1`,
		`sparcle_placement_seconds_count{class="guaranteed-rate"} 2`,
		`sparcle_repairs_total{outcome="repaired"} 1`,
		`sparcle_fluctuations_total 1`,
		`sparcle_app_allocated_rate{app="g",class="guaranteed-rate"}`,
		`sparcle_app_allocated_rate{app="b",class="best-effort"}`,
		`# TYPE sparcle_placement_seconds histogram`,
		`sparcle_http_requests_total{method="POST"}`,
		// Evaluation-core series from the assignment engine.
		`sparcle_assign_gamma_evals_total`,
		`sparcle_assign_widest_cache_hits_total`,
		`sparcle_assign_widest_cache_misses_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition was:\n%s", text)
	}

	// Withdrawing an app retires its rate gauge.
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/apps/b", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: %d", resp.StatusCode)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/metrics", "")
	if strings.Contains(string(body), `sparcle_app_allocated_rate{app="b"`) {
		t.Fatalf("withdrawn app still exposed:\n%s", body)
	}

	// /debug/vars serves the same registry as JSON.
	resp, body = do(t, http.MethodGet, ts.URL+"/debug/vars", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %d", resp.StatusCode)
	}
	var snap map[string]obs.FamilySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("debug/vars decode: %v\n%s", err, body)
	}
	if _, ok := snap["sparcle_admissions_total"]; !ok {
		t.Fatalf("debug/vars missing admissions: %s", body)
	}
}

// TestHealthzBody checks the structured liveness response.
func TestHealthzBody(t *testing.T) {
	ts, _ := testServer(t)
	if resp, _ := do(t, http.MethodPost, ts.URL+"/apps", appJSON("b", "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h healthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", h.UptimeSeconds)
	}
	if h.Apps["best-effort"] != 1 || h.Apps["guaranteed-rate"] != 0 {
		t.Fatalf("apps = %v", h.Apps)
	}
	// The submit plus this healthz request itself must both be counted.
	if h.Requests < 2 {
		t.Fatalf("requests = %d, want >= 2", h.Requests)
	}
}

// TestConcurrentTelemetry hammers scheduler mutations against the
// lock-free telemetry endpoints; under -race this verifies that /metrics,
// /debug/vars and /healthz never tear against concurrent submits,
// fluctuations and withdrawals.
func TestConcurrentTelemetry(t *testing.T) {
	ts, _ := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 128)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				name := fmt.Sprintf("app-%d-%d", i, j)
				resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON(name, "best-effort", `, "priority": 1`))
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Sprintf("submit %s: %d %s", name, resp.StatusCode, body)
					return
				}
				if resp, _ := do(t, http.MethodPost, ts.URL+"/fluctuation", `{"scale": {"ncp:m2": 0.5}}`); resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("fluctuation: %d", resp.StatusCode)
					return
				}
				if resp, _ := do(t, http.MethodDelete, ts.URL+"/apps/"+name, ""); resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("remove %s: %d", name, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				for _, path := range []string{"/metrics", "/debug/vars", "/healthz"} {
					if resp, _ := do(t, http.MethodGet, ts.URL+path, ""); resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("%s: %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Twenty admissions and twenty fluctuations, each counted once, and
	// every app withdrawn again.
	checkAgreement(t, ts.URL, map[string]float64{
		`sparcle_admissions_total{class="best-effort",outcome="admitted"}`: 20,
		`sparcle_fluctuations_total`:                                       20,
	})
}

// agreeing names the families that /metrics and /debug/vars must serve
// alike and that the router's state determines: the scheduler gauges,
// the shard and border gauges, and the logical verdict counters.
func agreeing(name string) bool {
	switch name {
	case "sparcle_app_allocated_rate", "sparcle_apps_admitted", "sparcle_alloc_rows_nnz",
		"sparcle_admissions_total", "sparcle_repairs_total", "sparcle_fluctuations_total":
		return true
	}
	return strings.HasPrefix(name, "sparcle_shard_") || strings.HasPrefix(name, "sparcle_border_")
}

// samples parses the Prometheus exposition into series -> value, for the
// agreeing families.
func samples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(key, "{")
		if !agreeing(name) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[key] = v
	}
	return out
}

// varsSamples renders the agreeing families of a /debug/vars snapshot
// in the exposition's series syntax.
func varsSamples(snap map[string]obs.FamilySnapshot) map[string]float64 {
	out := map[string]float64{}
	for name, fam := range snap {
		if !agreeing(name) {
			continue
		}
		for _, s := range fam.Series {
			var labels []string
			for k, v := range s.Labels {
				labels = append(labels, fmt.Sprintf("%s=%q", k, v))
			}
			sort.Strings(labels)
			key := name
			if len(labels) > 0 {
				key += "{" + strings.Join(labels, ",") + "}"
			}
			out[key] = float64(*s.Value)
		}
	}
	return out
}

// checkAgreement holds a server's telemetry to what its router serves:
// /debug/vars, read first with no scrape since the last operation,
// equals /metrics; Σ sparcle_apps_admitted per class is /healthz's apps;
// the sparcle_app_allocated_rate series are exactly the residents GET
// /apps lists (a cross-region app's halves, name@region), at their
// rates; sparcle_alloc_rows_nnz is the shards' solver nonzeros; and each
// verdict counter reads the logical operations in want (0 if absent).
func checkAgreement(t *testing.T, url string, want map[string]float64) {
	t.Helper()
	_, body := do(t, http.MethodGet, url+"/debug/vars", "")
	var snap map[string]obs.FamilySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("debug/vars: %v", err)
	}
	vars := varsSamples(snap)
	_, body = do(t, http.MethodGet, url+"/metrics", "")
	metrics := samples(t, string(body))
	if !maps.Equal(vars, metrics) {
		t.Errorf("/debug/vars disagrees with /metrics\nvars:    %v\nmetrics: %v", vars, metrics)
	}

	var hz struct {
		Apps     map[string]int `json:"apps"`
		Sharding struct {
			Shards []struct {
				SolverNNZ int `json:"solverNNZ"`
			} `json:"shards"`
		} `json:"sharding"`
	}
	_, body = do(t, http.MethodGet, url+"/healthz", "")
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"guaranteed-rate", "best-effort"} {
		key := fmt.Sprintf("sparcle_apps_admitted{class=%q}", class)
		if got := metrics[key]; got != float64(hz.Apps[class]) {
			t.Errorf("%s = %v, /healthz apps say %d", key, got, hz.Apps[class])
		}
	}
	nnz := 0
	for _, sh := range hz.Sharding.Shards {
		nnz += sh.SolverNNZ
	}
	if got := metrics["sparcle_alloc_rows_nnz"]; got != float64(nnz) {
		t.Errorf("sparcle_alloc_rows_nnz = %v, the shards hold %d", got, nnz)
	}

	var apps []struct {
		Name      string  `json:"name"`
		Class     string  `json:"class"`
		TotalRate float64 `json:"totalRate"`
	}
	_, body = do(t, http.MethodGet, url+"/apps", "")
	if err := json.Unmarshal(body, &apps); err != nil {
		t.Fatal(err)
	}
	var wantRates, gotRates []string
	for _, a := range apps {
		wantRates = append(wantRates, fmt.Sprintf("sparcle_app_allocated_rate{app=%q,class=%q} %v", a.Name, a.Class, a.TotalRate))
	}
	for key, v := range metrics {
		if strings.HasPrefix(key, "sparcle_app_allocated_rate{") {
			gotRates = append(gotRates, fmt.Sprintf("%s %v", key, v))
		}
	}
	sort.Strings(wantRates)
	sort.Strings(gotRates)
	if !slices.Equal(gotRates, wantRates) {
		t.Errorf("rate series are not the residents\n/metrics: %v\n/apps:    %v", gotRates, wantRates)
	}

	for key, v := range metrics {
		name, _, _ := strings.Cut(key, "{")
		switch name {
		case "sparcle_admissions_total", "sparcle_repairs_total", "sparcle_fluctuations_total":
			if v != want[key] {
				t.Errorf("%s = %v, want %v logical operations", key, v, want[key])
			}
		}
	}
	for key := range want {
		if _, ok := metrics[key]; !ok {
			t.Errorf("%s is not exposed", key)
		}
	}
}

// TestMetricsAgreeWithRouter drives a two-region journaled server through
// intra- and cross-region admissions of both classes (single and
// batched), a rejection, a remove, a fluctuation and a cross-region
// repair, then restarts it from its journal, and holds the telemetry to
// the router's state after each phase (checkAgreement). The verdict
// counters count logical applications and operations, once however many
// regions each spans. The restarted server admits an app before it
// recovers: the recovered router replaces that one on the same registry
// and must show exactly its own residents.
func TestMetricsAgreeWithRouter(t *testing.T) {
	net := shardTestNet(t)
	dir := t.TempDir()
	srv, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	checkAgreement(t, ts.URL, nil)

	const bigGR = `{"class": "guaranteed-rate", "minRate": 1e9, "minRateAvailability": 0.5, "maxPaths": 1}`
	for _, a := range []struct {
		name, from, to, qos string
		status              int
	}{
		{"inA", "a0", "a1", shardGRQoS, http.StatusCreated},
		{"inB", "b0", "b1", shardBEQoS, http.StatusCreated},
		{"xb", "a0", "b1", shardBEQoS, http.StatusCreated},
		{"big", "a0", "a1", bigGR, http.StatusConflict},
	} {
		if resp, body := do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON(a.name, a.from, a.to, a.qos)); resp.StatusCode != a.status {
			t.Fatalf("POST %s: %d %s", a.name, resp.StatusCode, body)
		}
	}
	batch := fmt.Sprintf(`{"apps": [%s, %s]}`, shardAppJSON("bb", "b0", "b1", shardBEQoS), shardAppJSON("bx", "a0", "b1", shardBEQoS))
	if resp, body := do(t, http.MethodPost, ts.URL+"/apps/batch", batch); resp.StatusCode != http.StatusOK || strings.Contains(string(body), `"admitted":false`) {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	// A guaranteed-rate app leases all the border headroom the
	// best-effort ones left, so it comes last.
	if resp, body := do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("xg", "a0", "b1", shardGRQoS)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST xg: %d %s", resp.StatusCode, body)
	}
	for _, op := range []struct{ method, path, body string }{
		{http.MethodDelete, "/apps/inB", ""},
		{http.MethodPost, "/fluctuation", `{"scale": {"ncp:a0": 0.9}}`},
		{http.MethodPost, "/apps/xg/repair", ""},
	} {
		if resp, body := do(t, op.method, ts.URL+op.path, op.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", op.method, op.path, resp.StatusCode, body)
		}
	}
	checkAgreement(t, ts.URL, map[string]float64{
		`sparcle_admissions_total{class="guaranteed-rate",outcome="admitted"}`: 2,
		`sparcle_admissions_total{class="guaranteed-rate",outcome="rejected"}`: 1,
		`sparcle_admissions_total{class="best-effort",outcome="admitted"}`:     4,
		`sparcle_repairs_total{outcome="repaired"}`:                            1,
		`sparcle_fluctuations_total`:                                           1,
	})
	before := getApps(t, ts.URL)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if resp, body := do(t, http.MethodPost, ts2.URL+"/apps", shardAppJSON("ghost", "b0", "b1", shardBEQoS)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("ghost: %d %s", resp.StatusCode, body)
	}
	ghost := map[string]float64{`sparcle_admissions_total{class="best-effort",outcome="admitted"}`: 1}
	checkAgreement(t, ts2.URL, ghost)
	if err := srv2.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatal(err)
	}
	if after := getApps(t, ts2.URL); after != before {
		t.Fatalf("recovered listing differs\nbefore: %s\nafter:  %s", before, after)
	}
	checkAgreement(t, ts2.URL, ghost)
	if resp, body := do(t, http.MethodDelete, ts2.URL+"/apps/xb", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove xb after recovery: %d %s", resp.StatusCode, body)
	}
	checkAgreement(t, ts2.URL, ghost)
}
