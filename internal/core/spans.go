package core

import (
	"sparcle/internal/assign"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
)

// This file wires the hierarchical latency-attribution spans of
// internal/obs through the scheduler. Every mutating operation (batch —
// which a single Submit is, with one app — remove, repair, fluctuation)
// opens one operation span; the stages inside it — each app's
// batch.submit with its assignment, availability analysis and capacity
// prediction, the best-effort allocation solve, and (via the server's
// commit hook) the journal append and fsync — become child spans. The
// spans also carry the scheduler's decisions: the admission verdict on
// batch.submit, the repair outcome on core.repair, the
// violated reservations on core.fluctuation, the solver statistics on
// alloc.solve, and Algorithm 2's pins, ranked picks and routes under
// assign.path (see assign.Sparcle.Span). A nil tracer keeps all of it
// free: the nil-safe span methods are no-ops and allocate nothing.

// SetSpans attaches (or clears, with nil) the span tracer on a live
// scheduler: every scheduler operation then emits a span tree
// attributing its latency to the pipeline stages it ran. The server uses
// this to keep spans armed across the scheduler rebuild that journal
// recovery performs. The default (no tracer) costs nothing.
func (s *Scheduler) SetSpans(st *obs.SpanTracer) { s.spans = st }

// Spans returns the attached span tracer (nil when tracing is off), so a
// driver of the scheduler can open the request spans its operations nest
// under.
func (s *Scheduler) Spans() *obs.SpanTracer { return s.spans }

// SetRequestSpan brackets the next scheduler operations under an
// externally owned request span: operation spans become children of sp
// instead of fresh roots, so an HTTP request's decode time and its
// scheduler work land in one trace. Callers must clear it (nil) when the
// request ends; the scheduler is not
// concurrency-safe, so the bracket rides the caller's serialization.
func (s *Scheduler) SetRequestSpan(sp *obs.Span) { s.reqSpan = sp }

// OpSpan returns the span of the scheduler operation currently executing,
// or nil outside one. The shard router tags each committed record with
// it, so the journal append/fsync spans nest under the operation that
// triggered them.
func (s *Scheduler) OpSpan() *obs.Span { return s.opSpan }

// startOpSpan opens the top-level span of one scheduler operation: a
// child of the installed request span when the server set one, a fresh
// root otherwise. With no tracer and no request span it returns nil,
// which every span method treats as a free no-op.
func (s *Scheduler) startOpSpan(name string) *obs.Span {
	if s.reqSpan != nil {
		return s.reqSpan.Child(name)
	}
	return s.spans.Start(name)
}

// spanAlg returns the assignment algorithm with sp bound for
// per-iteration span emission. SPARCLE's own algorithm is a value
// struct, so the binding is a per-call copy and the configured algorithm
// is untouched; the baselines have no span hook and are returned as-is.
func (s *Scheduler) spanAlg(sp *obs.Span) placement.Algorithm {
	if sp == nil {
		return s.alg
	}
	if a, ok := s.alg.(assign.Sparcle); ok {
		a.Span = sp
		return a
	}
	return s.alg
}
