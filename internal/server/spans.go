package server

import (
	"net/http"

	"sparcle/internal/obs"
)

// This file wires end-to-end span tracing through the HTTP layer: each
// mutating request gets one root span covering JSON decode, app build,
// shard-lock wait and the scheduler operation itself (whose pipeline
// stages, and the decisions they made, arrive as child spans via the
// router's request-span bracket), and two debug routes expose the flight
// ring and the per-stage latency quantiles. A rejected admission is
// explained by its trace alone: the verdict and reason on its
// batch.submit span, the γ ranking on its assign.rank spans.

// EnableSpans attaches a span tracer to the server: mutating requests
// then emit one span tree each, GET /debug/flight serves the recent
// traces as a Chrome trace, and GET /debug/latency serves per-stage
// p50/p99/p999 quantiles. Safe to call before or after EnableJournal —
// a rebuilt router is re-armed with the recorded tracer. A nil tracer
// disables everything at zero cost.
func (s *Server) EnableSpans(st *obs.SpanTracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = st
	s.rt().SetSpans(st)
}

// handleFlight serves the flight recorder's recent traces as one Chrome
// trace-event JSON array, loadable in chrome://tracing or Perfetto.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "span tracing disabled"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, s.spans.Flight()); err != nil {
		// The status line is already out; all that is left is to count it.
		s.metrics.Counter("sparcle_http_flight_errors_total").Inc()
	}
}

// handleLatency serves per-stage latency statistics (count, total
// seconds, p50/p99/p999) keyed by span name. With spans disabled the
// stage map is empty, not an error: load harnesses may scrape it
// unconditionally.
func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Stages map[string]obs.StageStats `json:"stages"`
	}{
		Stages: s.spans.Stages(),
	})
}
