package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

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
}
