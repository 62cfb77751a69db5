package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/resource"
)

// testServer builds a server over a small two-branch network.
func testServer(t *testing.T) (*httptest.Server, *network.Network) {
	t.Helper()
	b := network.NewBuilder("test")
	src := b.AddNCP("src", nil, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 80}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("s1", src, m1, 1e6, 0)
	b.AddLink("s2", src, m2, 1e6, 0)
	b.AddLink("k1", m1, snk, 1e6, 0)
	b.AddLink("k2", m2, snk, 1e6, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(net).Handler())
	t.Cleanup(ts.Close)
	return ts, net
}

// appJSON is a submittable pipeline spec.
func appJSON(name, class string, extra string) string {
	qos := fmt.Sprintf(`{"class": %q%s}`, class, extra)
	return fmt.Sprintf(`{
		"name": %q,
		"cts": [
			{"name": "in", "host": "src"},
			{"name": "work", "req": {"cpu": 10}},
			{"name": "out", "host": "snk"}
		],
		"tts": [
			{"from": "in", "to": "work", "bits": 1},
			{"from": "work", "to": "out", "bits": 1}
		],
		"qos": %s
	}`, name, qos)
}

func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	resp, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestHealthzMovesNoSolve: an unjournaled DELETE leaves the best-effort
// rates to the region's next reader, and /healthz is not one: it counts
// residents without settling them, so it runs no solve.
func TestHealthzMovesNoSolve(t *testing.T) {
	srv := New(testNet(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, name := range []string{"a", "b"} {
		if resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON(name, "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: %d %s", name, resp.StatusCode, body)
		}
	}
	if resp, body := do(t, http.MethodDelete, ts.URL+"/apps/a", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	solves := srv.Metrics().Counter("sparcle_alloc_solves_total", obs.L("solver", "proportional-fair"))
	before := solves.Value()
	resp, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"admitted":1`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	if got := solves.Value(); got != before {
		t.Fatalf("GET /healthz moved sparcle_alloc_solves_total %v -> %v", before, got)
	}
}

func TestNetworkEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	resp, body := do(t, http.MethodGet, ts.URL+"/network", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var view networkView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.NCPs) != 4 || len(view.Links) != 4 {
		t.Fatalf("view = %+v", view)
	}
	if view.NCPs[1].Capacity["cpu"] != 100 {
		t.Fatalf("capacity lost: %+v", view.NCPs[1])
	}
}

func TestSubmitListRemoveLifecycle(t *testing.T) {
	ts, _ := testServer(t)

	resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON("pipe", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var created appView
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.TotalRate <= 0 || len(created.Paths) == 0 {
		t.Fatalf("created = %+v", created)
	}
	if created.Paths[0].Hosts["in"] != "src" {
		t.Fatalf("pin lost: %+v", created.Paths[0].Hosts)
	}

	// Duplicate names are rejected.
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps", appJSON("pipe", "best-effort", ""))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit: %d", resp.StatusCode)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/apps", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var apps []appView
	if err := json.Unmarshal(body, &apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0].Name != "pipe" || apps[0].Class != "best-effort" {
		t.Fatalf("apps = %+v", apps)
	}

	resp, _ = do(t, http.MethodDelete, ts.URL+"/apps/pipe", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/apps/pipe", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double remove: %d", resp.StatusCode)
	}
}

func TestSubmitRejection(t *testing.T) {
	ts, _ := testServer(t)
	resp, body := do(t, http.MethodPost, ts.URL+"/apps",
		appJSON("big", "guaranteed-rate", `, "minRate": 1e9, "minRateAvailability": 0.9`))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("oversized GR: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "rejected") {
		t.Fatalf("body = %s", body)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := testServer(t)
	resp, _ := do(t, http.MethodPost, ts.URL+"/apps", `{invalid`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps", `{"name": "x", "cts": [{"name": "a", "host": "nope"}], "qos": {"class": "be"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad host: %d", resp.StatusCode)
	}
	// More paths than the availability analysis takes is a malformed
	// request, not a rejection.
	resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON("wide", "best-effort", `, "priority": 1, "maxPaths": 9`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("maxPaths 9: %d %s", resp.StatusCode, body)
	}
}

func TestFluctuationAndRepair(t *testing.T) {
	ts, _ := testServer(t)
	resp, _ := do(t, http.MethodPost, ts.URL+"/apps",
		appJSON("g", "guaranteed-rate", `, "minRate": 5, "minRateAvailability": 0.9, "maxPaths": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit GR: %d", resp.StatusCode)
	}

	// Kill m1 (where the app landed): the fluctuation reports it.
	resp, body := do(t, http.MethodPost, ts.URL+"/fluctuation", `{"scale": {"ncp:m1": 0}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fluctuation: %d %s", resp.StatusCode, body)
	}
	var rep fluctuationResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 1 || rep.ViolatedGR[0] != "g" {
		t.Fatalf("violations = %+v", rep)
	}

	// Repair moves it to m2.
	resp, body = do(t, http.MethodPost, ts.URL+"/apps/g/repair", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %d %s", resp.StatusCode, body)
	}
	var repaired appView
	if err := json.Unmarshal(body, &repaired); err != nil {
		t.Fatal(err)
	}
	if repaired.Paths[0].Hosts["work"] != "m2" {
		t.Fatalf("repaired hosts = %+v", repaired.Paths[0].Hosts)
	}

	// Repairing an unknown app 404s.
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps/nope/repair", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown repair: %d", resp.StatusCode)
	}
}

func TestFluctuationValidation(t *testing.T) {
	ts, _ := testServer(t)
	for _, body := range []string{
		`{invalid`,
		`{"scale": {"bogus-key": 0.5}}`,
		`{"scale": {"ncp:unknown": 0.5}}`,
		`{"scale": {"link:unknown": 0.5}}`,
		`{"scale": {"ncp:m1": -1}}`,
	} {
		resp, _ := do(t, http.MethodPost, ts.URL+"/fluctuation", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d", body, resp.StatusCode)
		}
	}
	// Link keys resolve.
	resp, _ := do(t, http.MethodPost, ts.URL+"/fluctuation", `{"scale": {"link:s1": 0.5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("link fluctuation: %d", resp.StatusCode)
	}
}

// TestConcurrentRequests hammers the API from many goroutines; run with
// -race this verifies the serialization around the (not thread-safe)
// scheduler.
func TestConcurrentRequests(t *testing.T) {
	ts, _ := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("app-%d", i)
			resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON(name, "best-effort", ""))
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
				errs <- fmt.Sprintf("submit %s: %d %s", name, resp.StatusCode, body)
				return
			}
			if resp, _ := do(t, http.MethodGet, ts.URL+"/apps", ""); resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("list after %s: %d", name, resp.StatusCode)
				return
			}
			if resp.StatusCode == http.StatusCreated {
				do(t, http.MethodDelete, ts.URL+"/apps/"+name, "")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPanicRecoveryMiddleware pins that a panicking handler answers 500
// with a JSON error, increments sparcle_http_panics_total, and leaves the
// server able to serve the next request.
func TestPanicRecoveryMiddleware(t *testing.T) {
	b := network.NewBuilder("t")
	b.AddNCP("a", nil, 0)
	netw, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(netw)
	calls := 0
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("boom: secret internals")
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if strings.Contains(body.Error, "secret") {
		t.Fatalf("panic value leaked to the client: %q", body.Error)
	}

	// The server survives: the next request succeeds.
	resp2, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("post-panic status = %d, want 204", resp2.StatusCode)
	}

	snap := s.Metrics().Snapshot()
	fam := snap["sparcle_http_panics_total"]
	if len(fam.Series) != 1 || *fam.Series[0].Value != 1 {
		t.Fatalf("sparcle_http_panics_total = %+v, want a single series at 1", fam)
	}
}

// TestPanicRecoveryPreservesAbort pins that http.ErrAbortHandler keeps its
// contract: the middleware re-panics instead of answering 500.
func TestPanicRecoveryPreservesAbort(t *testing.T) {
	b := network.NewBuilder("t")
	b.AddNCP("a", nil, 0)
	netw, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(netw)
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	if _, err := http.Get(ts.URL + "/"); err == nil {
		t.Fatal("aborted handler must surface as a transport error, not a response")
	}
	if fam := s.Metrics().Snapshot()["sparcle_http_panics_total"]; len(fam.Series) != 0 {
		t.Fatalf("abort counted as panic: %+v", fam)
	}
}
