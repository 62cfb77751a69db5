package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span half of the telemetry layer: hierarchical
// wall-clock spans over the admission pipeline (HTTP decode, scheduler
// lock wait, Algorithm 2 placement, BE solve, journal fsync), emitted as
// JSONL, fed into per-stage latency histograms, and retained in a bounded
// flight-recorder ring served as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto).
//
// Spans are also the scheduler's decision record: a span's single verdict
// (the ranked pick of an assign.rank, the admission verdict of a
// batch.submit) is a set of attributes on it, and decisions repeated inside
// one span (pinned placements, committed routes) are events on it.
//
// A nil *SpanTracer hands out nil *Spans whose methods are no-ops and
// allocate nothing, so instrumented code creates and ends spans
// unconditionally and the hot path stays allocation-free unless a tracer
// is attached. Payloads that cost something to build (decision events,
// list attributes) are guarded with sp != nil.

// Float is a float64 that survives JSON encoding when non-finite:
// ±Inf and NaN are emitted as the strings "+Inf", "-Inf" and "NaN"
// (γ is +Inf for unconstrained placements, and a same-host route's
// bottleneck is +Inf). Finite values encode as plain JSON numbers.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(formatFloat(v))
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting both encodings.
func (f *Float) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("obs: invalid float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// SpanBuckets are the high-resolution latency buckets (seconds) used for
// the per-stage span histograms: six per decade from 1µs to 10s, so
// bucket-interpolated p999 estimates stay within ~40% of the true value
// across the microsecond-decode to multi-second-solve range.
var SpanBuckets = func() []float64 {
	mants := []float64{1, 1.5, 2, 3, 5, 7}
	var b []float64
	for exp := 1e-6; exp < 10; exp *= 10 {
		for _, m := range mants {
			b = append(b, m*exp)
		}
	}
	return append(b, 10)
}()

// metricSpanSeconds is the per-stage latency histogram family maintained
// by a SpanTracer with a Metrics registry attached.
const metricSpanSeconds = "sparcle_span_seconds"

// SpanRecord is one finished span, as written to the JSONL stream and
// held in the flight-recorder ring. Times are microseconds: Start is
// relative to the tracer's epoch (monotonic), Dur is the span length.
type SpanRecord struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"ts"`
	Dur    int64  `json:"dur"`
	// Attrs carries the span's attributes as set: strings, int64s,
	// Floats, and whatever SetAny attached (lists, booleans).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Events are the decisions recorded inside the span, in order.
	Events []SpanEvent `json:"events,omitempty"`
}

// SpanEvent is one decision recorded inside a span: TS is microseconds
// since the tracer's epoch, like SpanRecord.Start.
type SpanEvent struct {
	Name  string         `json:"name"`
	TS    int64          `json:"ts"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanOptions configures a SpanTracer. All sinks are optional; a tracer
// with no sinks still feeds the flight recorder.
type SpanOptions struct {
	// JSONL, when non-nil, receives one JSON object per finished span.
	JSONL io.Writer
	// Metrics, when non-nil, receives a per-stage latency histogram
	// sparcle_span_seconds{span="<name>"} (SpanBuckets resolution), which
	// also backs Stages.
	Metrics *Registry
	// FlightSize bounds the flight-recorder ring: the most recent
	// FlightSize root span trees are retained (default 64).
	FlightSize int
}

// SpanTracer records hierarchical spans. A nil *SpanTracer is the
// disabled tracer: Enabled reports false, Start returns a nil *Span, and
// the whole instrumentation layer costs nothing.
type SpanTracer struct {
	opt   SpanOptions
	epoch time.Time

	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	mu        sync.Mutex
	jsonl     *bufio.Writer
	jsonlEnc  *json.Encoder
	ring      [][]SpanRecord
	ringNext  int
	ringFull  bool
	stageHist map[string]*Histogram
}

// NewSpanTracer returns a span tracer with the given sinks.
func NewSpanTracer(opt SpanOptions) *SpanTracer {
	if opt.FlightSize <= 0 {
		opt.FlightSize = 64
	}
	t := &SpanTracer{
		opt:       opt,
		epoch:     time.Now(),
		ring:      make([][]SpanRecord, opt.FlightSize),
		stageHist: map[string]*Histogram{},
	}
	if opt.JSONL != nil {
		t.jsonl = bufio.NewWriter(opt.JSONL)
		t.jsonlEnc = json.NewEncoder(t.jsonl)
	}
	return t
}

// Enabled reports whether spans will be recorded.
func (t *SpanTracer) Enabled() bool { return t != nil }

// Start opens a root span: a new trace is allocated and every descendant
// created through Child lands in the same trace buffer. Returns nil (the
// free no-op span) on a nil tracer.
func (t *SpanTracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{
		tracer: t,
		name:   name,
		start:  time.Now(),
		trace:  t.nextTrace.Add(1),
		id:     t.nextSpan.Add(1),
	}
	sp.buf = &traceBuf{}
	return sp
}

// Span is one timed stage of a trace. A span is created by
// SpanTracer.Start or Span.Child, annotated with SetAttr/SetInt/SetFloat/
// SetAny and Event, and finished exactly once with End. All methods are
// no-ops on a nil receiver. A single span must not be shared across
// goroutines; concurrent sibling spans of one trace are safe.
type Span struct {
	tracer *SpanTracer
	buf    *traceBuf
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]any
	events []SpanEvent
	ended  bool
}

// traceBuf accumulates the finished spans of one trace until its root
// ends. Children may end from concurrent goroutines.
type traceBuf struct {
	mu   sync.Mutex
	recs []SpanRecord
	done bool
}

// Child opens a sub-span of sp. On a nil receiver it returns nil, so
// deep instrumentation chains are free when tracing is disabled.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return &Span{
		tracer: sp.tracer,
		buf:    sp.buf,
		trace:  sp.trace,
		id:     sp.tracer.nextSpan.Add(1),
		parent: sp.id,
		name:   name,
		start:  time.Now(),
	}
}

// SetAttr attaches a string attribute.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.SetAny(key, value)
}

// SetInt attaches an integer attribute.
func (sp *Span) SetInt(key string, value int64) {
	if sp == nil {
		return
	}
	sp.SetAny(key, value)
}

// SetFloat attaches a float attribute (±Inf/NaN-safe via Float).
func (sp *Span) SetFloat(key string, value float64) {
	if sp == nil {
		return
	}
	sp.SetAny(key, Float(value))
}

// SetAny attaches an attribute of any JSON-encodable value (a list, a
// record). The caller boxes the value, so guard it with sp != nil.
func (sp *Span) SetAny(key string, value any) {
	if sp == nil {
		return
	}
	if sp.attrs == nil {
		sp.attrs = map[string]any{}
	}
	sp.attrs[key] = value
}

// Event records one decision inside sp, stamped with the current time.
// The caller builds attrs, so guard the call with sp != nil.
func (sp *Span) Event(name string, attrs map[string]any) {
	if sp == nil {
		return
	}
	sp.events = append(sp.events, SpanEvent{Name: name, TS: time.Since(sp.tracer.epoch).Microseconds(), Attrs: attrs})
}

// Duration returns the time elapsed since the span started (0 on nil).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	return time.Since(sp.start)
}

// End finishes the span, recording it into its trace. Ending the root
// span flushes the whole trace to the tracer's sinks and the flight
// ring; children ended after their root are dropped. Ending twice is a
// no-op.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	end := time.Now()
	rec := SpanRecord{
		Trace:  sp.trace,
		Span:   sp.id,
		Parent: sp.parent,
		Name:   sp.name,
		Start:  sp.start.Sub(sp.tracer.epoch).Microseconds(),
		Dur:    end.Sub(sp.start).Microseconds(),
		Attrs:  sp.attrs,
		Events: sp.events,
	}
	sp.buf.mu.Lock()
	if sp.buf.done {
		sp.buf.mu.Unlock()
		return
	}
	sp.buf.recs = append(sp.buf.recs, rec)
	var recs []SpanRecord
	if sp.parent == 0 {
		sp.buf.done = true
		recs = sp.buf.recs
	}
	sp.buf.mu.Unlock()
	if recs != nil {
		sp.tracer.flushTrace(recs)
	}
}

// flushTrace records one finished trace: per-stage histograms, JSONL
// and the flight ring.
func (t *SpanTracer) flushTrace(recs []SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opt.Metrics != nil {
		for i := range recs {
			h, ok := t.stageHist[recs[i].Name]
			if !ok {
				t.opt.Metrics.SetHelp(metricSpanSeconds, "Latency of admission-pipeline stages by span name, seconds.")
				h = t.opt.Metrics.Histogram(metricSpanSeconds, SpanBuckets, L("span", recs[i].Name))
				t.stageHist[recs[i].Name] = h
			}
			h.Observe(float64(recs[i].Dur) / 1e6)
		}
	}
	if t.jsonlEnc != nil {
		for i := range recs {
			_ = t.jsonlEnc.Encode(&recs[i])
		}
	}
	t.ring[t.ringNext] = recs
	t.ringNext++
	if t.ringNext == len(t.ring) {
		t.ringNext = 0
		t.ringFull = true
	}
}

// chromeEvent is the trace-event JSON shape: one complete event ("X")
// per span and one thread-scoped instant event ("i") per span event,
// with the trace id as the thread so each admission renders as its own
// row.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur"`
	Scope string         `json:"s,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeEvent writes rec's complete event followed by one instant
// event per span event, comma-separated.
func writeChromeEvent(w io.Writer, rec *SpanRecord) {
	args := map[string]any{"span": rec.Span}
	if rec.Parent != 0 {
		args["parent"] = rec.Parent
	}
	for k, v := range rec.Attrs {
		args[k] = v
	}
	b, err := json.Marshal(chromeEvent{
		Name: rec.Name, Cat: "sparcle", Ph: "X",
		TS: rec.Start, Dur: rec.Dur, PID: 1, TID: rec.Trace, Args: args,
	})
	if err != nil {
		return
	}
	w.Write(b)
	for _, ev := range rec.Events {
		b, err := json.Marshal(chromeEvent{
			Name: ev.Name, Cat: rec.Name, Ph: "i", Scope: "t",
			TS: ev.TS, PID: 1, TID: rec.Trace, Args: ev.Attrs,
		})
		if err != nil {
			continue
		}
		io.WriteString(w, ",\n")
		w.Write(b)
	}
}

// WriteChromeTrace renders traces (e.g. the Flight ring) as one Chrome
// trace-event array.
func WriteChromeTrace(w io.Writer, traces [][]SpanRecord) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	for _, recs := range traces {
		for i := range recs {
			if !first {
				bw.WriteString(",\n")
			}
			first = false
			writeChromeEvent(bw, &recs[i])
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// Flight returns the flight-recorder contents, oldest trace first. A nil
// tracer returns nil.
func (t *SpanTracer) Flight() [][]SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [][]SpanRecord
	if t.ringFull {
		out = append(out, t.ring[t.ringNext:]...)
	}
	return append(out, t.ring[:t.ringNext]...)
}

// StageStats summarizes one pipeline stage's latency distribution, with
// quantiles estimated from the stage histogram's buckets.
type StageStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sumSeconds"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Stages returns per-stage latency statistics for every span name seen
// so far. Requires a Metrics registry; without one (or on a nil tracer)
// the map is empty.
func (t *SpanTracer) Stages() map[string]StageStats {
	out := map[string]StageStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, h := range t.stageHist {
		out[name] = StageStats{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
	}
	return out
}

// Close flushes the JSONL stream. It does not close the underlying
// writer (the caller owns the file).
func (t *SpanTracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jsonl != nil {
		return t.jsonl.Flush()
	}
	return nil
}
