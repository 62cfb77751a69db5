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
)

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

// Tracer records the scheduler's decisions as one JSON object per line
// (JSONL). A nil *Tracer is the disabled tracer: Enabled() reports
// false and every method is a no-op, so instrumented code guards hot
// work with a single Enabled() check and otherwise calls
// unconditionally.
//
// The tracer serializes writers internally and is safe for concurrent
// use; the scheduler itself is serialized by its callers, so SetApp's
// app context is well-defined between Submit entry and exit.
type Tracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	seq uint64
	app string
}

// NewTracer returns a Tracer writing JSONL events to w. Call Close (or
// Flush) before reading the output; events are buffered.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw)}
}

// Enabled reports whether events will be recorded. It is the hot-path
// guard: when false (nil tracer), building event payloads must be
// skipped entirely.
func (t *Tracer) Enabled() bool { return t != nil }

// SetApp sets the application name stamped on subsequent events; the
// empty string clears it. The scheduler brackets each Submit with it.
func (t *Tracer) SetApp(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.app = name
	t.mu.Unlock()
}

// Flush writes buffered events through to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes the tracer. It does not close the underlying writer
// (the caller owns the file).
func (t *Tracer) Close() error { return t.Flush() }

// emit stamps and writes one event.
func (t *Tracer) emit(e stampable) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e.stamp(t.seq, t.app)
	_ = t.enc.Encode(e)
}

// stampable lets emit fill the shared header of any event type.
type stampable interface{ stamp(seq uint64, app string) }

// Header is the part shared by every trace event.
type Header struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	App  string `json:"app,omitempty"`
}

func (h *Header) stamp(seq uint64, app string) {
	h.Seq = seq
	if h.App == "" {
		h.App = app
	}
}

// RankingCandidate is one per-CT entry of a dynamic-ranking iteration:
// the best host found for that still-unplaced CT and the bottleneck
// rate γ it would achieve there.
type RankingCandidate struct {
	CT    string `json:"ct"`
	Host  string `json:"host"`
	Gamma Float  `json:"gamma"`
}

// RankingEvent records one placement step of Algorithm 2: either a
// pinned placement or a dynamic-ranking pick together with the scores
// of every candidate CT considered in that iteration.
type RankingEvent struct {
	Header
	Step   int    `json:"step"`
	CT     string `json:"ct"`
	Host   string `json:"host"`
	Pinned bool   `json:"pinned,omitempty"`
	Gamma  Float  `json:"gamma"`
	// Candidates holds, for a ranked pick, the best-host score of every
	// unplaced CT in this iteration (the chosen CT is the minimum).
	Candidates []RankingCandidate `json:"candidates,omitempty"`
}

// Ranking records a placement decision.
func (t *Tracer) Ranking(e RankingEvent) {
	e.Type = "ranking"
	t.emit(&e)
}

// RouteEvent records one committed widest-path route (Algorithm 1) for
// a transport task between two placed computation tasks.
type RouteEvent struct {
	Header
	TT   string `json:"tt"`
	From string `json:"from"`
	To   string `json:"to"`
	// Hops is the route length in links (0 when co-located).
	Hops int `json:"hops"`
	// Bottleneck is the route's bottleneck weight C_l/(bits+load).
	Bottleneck Float `json:"bottleneck"`
	// Relaxations counts the edge relaxations the search performed.
	Relaxations int `json:"relaxations"`
}

// Route records a transport-task routing decision.
func (t *Tracer) Route(e RouteEvent) {
	e.Type = "route"
	t.emit(&e)
}

// AdmissionEvent records the outcome of one Submit: admission with the
// achieved paths/rate/availability, or rejection with the reason.
type AdmissionEvent struct {
	Header
	Class        string  `json:"class"`
	Outcome      string  `json:"outcome"` // "admitted", "rejected" or "error"
	Reason       string  `json:"reason,omitempty"`
	Paths        int     `json:"paths,omitempty"`
	Rate         float64 `json:"rate,omitempty"`
	Availability float64 `json:"availability,omitempty"`
	Seconds      float64 `json:"seconds"`
}

// Admission records an admission-control verdict.
func (t *Tracer) Admission(e AdmissionEvent) {
	e.Type = "admission"
	t.emit(&e)
}

// RepairEvent records a repair attempt on a guaranteed-rate app.
type RepairEvent struct {
	Header
	Outcome string  `json:"outcome"` // "repaired" or "failed"
	Reason  string  `json:"reason,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Seconds float64 `json:"seconds"`
}

// Repair records a repair attempt.
func (t *Tracer) Repair(e RepairEvent) {
	e.Type = "repair"
	t.emit(&e)
}

// AllocEvent records one proportional-fair solve across
// the admitted best-effort applications.
type AllocEvent struct {
	Header
	Solver    string  `json:"solver"` // "proportional-fair"
	Flows     int     `json:"flows"`
	Rows      int     `json:"rows,omitempty"`
	NNZ       int     `json:"nnz,omitempty"`
	Cycles    int     `json:"cycles,omitempty"`
	RowEvals  int     `json:"rowEvals,omitempty"`
	Converged bool    `json:"converged"`
	Warm      bool    `json:"warm,omitempty"`
	Seconds   float64 `json:"seconds"`
}

// Alloc records a best-effort rate allocation solve.
func (t *Tracer) Alloc(e AllocEvent) {
	e.Type = "alloc"
	t.emit(&e)
}

// FluctuationEvent records a capacity fluctuation being applied.
type FluctuationEvent struct {
	Header
	Elements   int      `json:"elements"`
	ViolatedGR []string `json:"violatedGR,omitempty"`
}

// Fluctuation records a capacity fluctuation.
func (t *Tracer) Fluctuation(e FluctuationEvent) {
	e.Type = "fluctuation"
	t.emit(&e)
}

// ChaosEvent records one step of the chaos engine's timeline: a failure
// injection, a recovery, a self-healing repair attempt, a give-up into
// the degraded state, a requeue on recovery, or a heal (a pending repair
// canceled because recovery restored the guarantee first).
type ChaosEvent struct {
	Header
	// Kind is "inject", "recover", "repair", "give-up", "requeue" or
	// "heal".
	Kind string `json:"kind"`
	// At is the trace time of the event, in seconds.
	At float64 `json:"at"`
	// Elements counts the elements transitioning (inject/recover).
	Elements int `json:"elements,omitempty"`
	// Attempt is the 1-based attempt number within a repair episode.
	Attempt int `json:"attempt,omitempty"`
	// Backoff is the delay scheduled before the next attempt, seconds.
	Backoff float64 `json:"backoff,omitempty"`
	// Outcome is "repaired" or "failed" for repair events.
	Outcome string `json:"outcome,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// Chaos records a chaos-engine event.
func (t *Tracer) Chaos(e ChaosEvent) {
	e.Type = "chaos"
	t.emit(&e)
}

// ReadEvents decodes a JSONL trace back into generic per-line maps, for
// tests and ad-hoc analysis tools.
func ReadEvents(r io.Reader) ([]map[string]any, error) {
	var out []map[string]any
	dec := json.NewDecoder(r)
	for {
		var m map[string]any
		if err := dec.Decode(&m); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}
