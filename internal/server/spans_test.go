package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparcle/internal/journal"
	"sparcle/internal/obs"
)

// spanServer journals srv with span tracing armed, returning the test
// server, the tracer and the JSONL sink.
func spanServer(t *testing.T, srv *Server) (*httptest.Server, *obs.SpanTracer, *bytes.Buffer) {
	t.Helper()
	var jsonl bytes.Buffer
	st := obs.NewSpanTracer(obs.SpanOptions{JSONL: &jsonl, Metrics: srv.Metrics()})
	srv.EnableSpans(st)
	if err := srv.EnableJournal(t.TempDir(), journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return ts, st, &jsonl
}

// TestSubmitSpanTree is the acceptance check of the span layer: one
// admission through the HTTP API produces a single trace whose tree runs
// decode -> build -> group lead -> lock wait -> batch of one -> placement
// -> allocation solve -> journal append -> journal fsync, all correctly
// parented, with the admission verdict, the ranked picks and the
// committed routes recorded on it — on one region and, for an
// intra-region app, on two.
func TestSubmitSpanTree(t *testing.T) {
	sharded, err := NewSharded(shardTestNet(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		srv  *Server
		app  string
	}{
		{"one-region", New(testNet(t)), appJSON("pipe", "best-effort", `, "priority": 1`)},
		{"two-regions", sharded, shardAppJSON("pipe", "a0", "a1", shardBEQoS)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSubmitSpanTree(t, tc.srv, tc.app) })
	}
}

func checkSubmitSpanTree(t *testing.T, srv *Server, app string) {
	ts, st, jsonl := spanServer(t, srv)
	resp, body := do(t, http.MethodPost, ts.URL+"/apps", app)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]obs.SpanRecord{}
	var trace uint64
	ranked, pins, routes := 0, 0, 0
	decoder := json.NewDecoder(jsonl)
	for decoder.More() {
		var r obs.SpanRecord
		if err := decoder.Decode(&r); err != nil {
			t.Fatalf("decode span: %v", err)
		}
		if trace == 0 {
			trace = r.Trace
		}
		if r.Trace != trace {
			t.Fatalf("span %q escaped into trace %d (want %d)", r.Name, r.Trace, trace)
		}
		byName[r.Name] = r
		if r.Name == "assign.rank" && r.Attrs["ct"] == "work" && r.Attrs["gamma"] != nil {
			ranked++
		}
		for _, ev := range r.Events {
			switch {
			case r.Name == "assign.path" && ev.Name == "pin":
				pins++
			case r.Name == "assign.place" && ev.Name == "route" && ev.Attrs["hops"] != nil:
				routes++
			}
		}
	}

	// The admission path, bottom-up: every stage must be present and
	// parented under the stage that invoked it.
	for child, parent := range map[string]string{
		"http.decode":    "http.submit",
		"http.build":     "http.submit",
		"group.lead":     "http.submit",
		"lock.wait":      "group.lead",
		"core.batch":     "group.lead",
		"batch.submit":   "core.batch",
		"alloc.predict":  "batch.submit",
		"assign.path":    "batch.submit",
		"assign.rank":    "assign.path",
		"assign.place":   "assign.path",
		"avail.analyze":  "batch.submit",
		"alloc.solve":    "core.batch",
		"journal.append": "core.batch",
		"journal.fsync":  "journal.append",
	} {
		c, ok := byName[child]
		if !ok {
			t.Errorf("stage %q missing from trace", child)
			continue
		}
		p, ok := byName[parent]
		if !ok {
			t.Errorf("parent stage %q missing from trace", parent)
			continue
		}
		if c.Parent != p.Span {
			t.Errorf("%q parented under span %d, want %q (%d)", child, c.Parent, parent, p.Span)
		}
	}
	if root := byName["http.submit"]; root.Parent != 0 {
		t.Errorf("http.submit is not the root (parent %d)", root.Parent)
	}
	if got := byName["http.submit"].Attrs["outcome"]; got != "admitted" {
		t.Errorf("root outcome attr = %v", got)
	}

	// The decisions: the verdict on the operation span, the two pinned
	// ends, the ranked worker and its two routes.
	verdict := byName["batch.submit"].Attrs
	if verdict["outcome"] != "admitted" || verdict["class"] != "best-effort" || verdict["paths"] != float64(1) ||
		verdict["rate"] == nil || verdict["availability"] == nil || verdict["reason"] != nil {
		t.Errorf("batch.submit verdict = %v", verdict)
	}
	if pins != 2 || ranked != 1 || routes != 2 {
		t.Errorf("pins %d, ranked picks %d, routes %d; want 2, 1, 2", pins, ranked, routes)
	}
	if solve := byName["alloc.solve"].Attrs; solve["converged"] != true || solve["rows"] == nil {
		t.Errorf("alloc.solve attrs = %v", solve)
	}
}

// TestRejectionExplainedByFlight is the explainability acceptance check:
// a server armed with a flight ring and no trace file rejects an
// admission, and GET /debug/flight alone, like the span records behind
// it, holds that request's trace with the verdict and its reason on the
// operation span and the γ ranking that preceded it.
func TestRejectionExplainedByFlight(t *testing.T) {
	srv := New(testNet(t))
	st := obs.NewSpanTracer(obs.SpanOptions{FlightSize: 4})
	srv.EnableSpans(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	app := appJSON("greedy", "guaranteed-rate", `, "minRate": 1e9, "minRateAvailability": 0.9, "maxPaths": 2`)
	if resp, body := do(t, http.MethodPost, ts.URL+"/apps", app); resp.StatusCode == http.StatusCreated {
		t.Fatalf("impossible app admitted: %s", body)
	}

	// The span records: one trace, the verdict on batch.submit, and the
	// last ranking iteration's pick with its candidate scores.
	flight := st.Flight()
	if len(flight) != 1 {
		t.Fatalf("flight holds %d traces, want 1", len(flight))
	}
	var verdict, lastRank obs.SpanRecord
	for _, r := range flight[0] {
		switch {
		case r.Name == "batch.submit":
			verdict = r
		case r.Name == "assign.rank" && r.Span > lastRank.Span:
			lastRank = r
		}
	}
	reason, _ := verdict.Attrs["reason"].(string)
	if verdict.Attrs["outcome"] != "rejected" || verdict.Attrs["app"] != "greedy" || !strings.Contains(reason, "min-rate availability") {
		t.Fatalf("batch.submit verdict = %v", verdict.Attrs)
	}
	gamma, ok := lastRank.Attrs["gamma"].(obs.Float)
	cands, _ := lastRank.Attrs["candidates"].([]map[string]any)
	if !ok || !(gamma > 0) || len(cands) != 1 || cands[0]["ct"] != "work" || cands[0]["gamma"] != gamma {
		t.Fatalf("last assign.rank = %v", lastRank.Attrs)
	}

	// GET /debug/flight serves the same explanation.
	resp, body := do(t, http.MethodGet, ts.URL+"/debug/flight", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: %d", resp.StatusCode)
	}
	var events []struct {
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("flight not a chrome trace: %v\n%s", err, body)
	}
	var served, servedRank map[string]any
	for _, e := range events {
		switch e.Name {
		case "batch.submit":
			served = e.Args
		case "assign.rank":
			if servedRank == nil || e.Args["span"].(float64) > servedRank["span"].(float64) {
				servedRank = e.Args
			}
		}
	}
	if served["outcome"] != "rejected" || served["reason"] != reason {
		t.Fatalf("served verdict = %v", served)
	}
	if servedRank["gamma"] != float64(gamma) || len(servedRank["candidates"].([]any)) != 1 {
		t.Fatalf("served last assign.rank = %v", servedRank)
	}
}

// TestDebugFlightAndLatency checks the flight-recorder route serves a
// parseable Chrome trace and the latency route serves per-stage
// quantiles after traffic.
func TestDebugFlightAndLatency(t *testing.T) {
	ts, _, _ := spanServer(t, New(testNet(t)))
	if resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON("a", "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/debug/flight", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: %d", resp.StatusCode)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("flight not a chrome trace: %v\n%s", err, body)
	}
	if len(events) == 0 {
		t.Fatal("flight ring empty after an admission")
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/debug/latency", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("latency: %d", resp.StatusCode)
	}
	var lat struct {
		Stages map[string]obs.StageStats `json:"stages"`
	}
	if err := json.Unmarshal(body, &lat); err != nil {
		t.Fatal(err)
	}
	sub, ok := lat.Stages["core.batch"]
	if !ok || sub.Count != 1 || sub.P50 <= 0 {
		t.Fatalf("latency stages = %+v", lat.Stages)
	}
}

// TestFlightDisabled: without EnableSpans the flight route answers 404
// and the latency route serves an empty stage map.
func TestFlightDisabled(t *testing.T) {
	ts, _ := testServer(t)
	if resp, _ := do(t, http.MethodGet, ts.URL+"/debug/flight", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flight without spans: %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/debug/latency", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"stages":{}`)) {
		t.Fatalf("latency without spans: %d %s", resp.StatusCode, body)
	}
}

// TestHealthzJournal checks the durability section of /healthz in both
// the journaled and plain configurations.
func TestHealthzJournal(t *testing.T) {
	ts, _, _ := spanServer(t, New(testNet(t)))
	if resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON("a", "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	_, body := do(t, http.MethodGet, ts.URL+"/healthz", "")
	var h healthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Journal.Enabled || h.Journal.Fsync != "always" {
		t.Fatalf("journal health = %+v", h.Journal)
	}
	if h.Journal.LastSeq < 1 || h.Journal.SinceSnapshot < 1 {
		t.Fatalf("journal progress missing: %+v", h.Journal)
	}
	if h.Journal.Recovering {
		t.Fatal("recovering after startup")
	}

	tsPlain, _ := testServer(t)
	_, body = do(t, http.MethodGet, tsPlain.URL+"/healthz", "")
	var hp healthzResponse
	if err := json.Unmarshal(body, &hp); err != nil {
		t.Fatal(err)
	}
	if hp.Journal.Enabled || hp.Journal.Fsync != "" {
		t.Fatalf("plain server reports a journal: %+v", hp.Journal)
	}
}
