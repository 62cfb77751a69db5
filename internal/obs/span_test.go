package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestSpanTree exercises the full span pipeline: a root with nested and
// sibling children lands in the JSONL stream with correct parent
// linkage, in the per-stage histograms, and in the flight ring, which
// renders as valid Chrome trace-event JSON.
func TestSpanTree(t *testing.T) {
	var jsonl bytes.Buffer
	reg := NewRegistry()
	st := NewSpanTracer(SpanOptions{JSONL: &jsonl, Metrics: reg})

	root := st.Start("http.submit")
	root.SetAttr("app", "cam0")
	dec := root.Child("http.decode")
	dec.SetInt("bytes", 512)
	dec.End()
	sub := root.Child("core.submit")
	asn := sub.Child("assign.path")
	asn.SetFloat("gamma", 12.5)
	asn.End()
	sub.End()
	root.End()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var recs []SpanRecord
	decoder := json.NewDecoder(&jsonl)
	for decoder.More() {
		var r SpanRecord
		if err := decoder.Decode(&r); err != nil {
			t.Fatalf("decode jsonl: %v", err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.Trace != recs[0].Trace {
			t.Fatalf("span %q in trace %d, want %d", r.Name, r.Trace, recs[0].Trace)
		}
	}
	rootRec := byName["http.submit"]
	if rootRec.Parent != 0 {
		t.Fatalf("root has parent %d", rootRec.Parent)
	}
	if byName["http.decode"].Parent != rootRec.Span || byName["core.submit"].Parent != rootRec.Span {
		t.Fatal("children not linked to root")
	}
	if byName["assign.path"].Parent != byName["core.submit"].Span {
		t.Fatal("grandchild not linked to its parent")
	}
	if got := rootRec.Attrs["app"]; got != "cam0" {
		t.Fatalf("root attr = %v", got)
	}
	if rootRec.Dur < byName["core.submit"].Dur {
		t.Fatal("root shorter than its child")
	}

	// Per-stage histograms were fed.
	if n := reg.Histogram(metricSpanSeconds, SpanBuckets, L("span", "http.submit")).Count(); n != 1 {
		t.Fatalf("stage histogram count = %d", n)
	}
	stages := st.Stages()
	if len(stages) != 4 || stages["http.decode"].Count != 1 {
		t.Fatalf("stages = %v", stages)
	}

	// The trace is in the flight ring, which renders as one well-formed
	// JSON array of complete events covering every span.
	fl := st.Flight()
	if len(fl) != 1 || len(fl[0]) != 4 {
		t.Fatalf("flight = %d traces", len(fl))
	}
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, fl); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, chrome.String())
	}
	if len(events) != 4 {
		t.Fatalf("chrome events = %d, want 4", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" || e["cat"] != "sparcle" {
			t.Fatalf("bad event %v", e)
		}
	}
}

// TestTracerJSONL checks the decision record: a span's verdict attributes
// and its events reach the JSONL stream in order, a non-finite γ
// survives the round trip, and the Chrome rendering carries each event
// as an instant on the span's row.
func TestTracerJSONL(t *testing.T) {
	var jsonl bytes.Buffer
	st := NewSpanTracer(SpanOptions{JSONL: &jsonl})
	path := st.Start("assign.path")
	path.Event("pin", map[string]any{"step": 0, "ct": "cam", "host": "ncp1"})
	rank := path.Child("assign.rank")
	rank.SetFloat("gamma", math.Inf(1))
	rank.SetAny("candidates", []map[string]any{{"ct": "detect", "host": "ncp1", "gamma": Float(3.5)}})
	rank.End()
	place := path.Child("assign.place")
	place.Event("route", map[string]any{"tt": "frames", "hops": 2, "bottleneck": Float(1.25)})
	place.Event("route", map[string]any{"tt": "faces", "hops": 0, "bottleneck": Float(math.Inf(1))})
	place.End()
	path.End()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), jsonl.String())
	}
	byName := map[string]SpanRecord{}
	for _, line := range lines {
		var r SpanRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		byName[r.Name] = r
	}
	if g := byName["assign.rank"].Attrs["gamma"]; g != "+Inf" {
		t.Fatalf("infinite gamma encoded as %v", g)
	}
	if c, ok := byName["assign.rank"].Attrs["candidates"].([]any); !ok || len(c) != 1 {
		t.Fatalf("candidates = %v", byName["assign.rank"].Attrs["candidates"])
	}
	if ev := byName["assign.path"].Events; len(ev) != 1 || ev[0].Name != "pin" || ev[0].Attrs["ct"] != "cam" {
		t.Fatalf("path events = %+v", ev)
	}
	routes := byName["assign.place"].Events
	if len(routes) != 2 || routes[0].Attrs["tt"] != "frames" || routes[1].Attrs["bottleneck"] != "+Inf" {
		t.Fatalf("place events = %+v", routes)
	}
	if routes[0].TS < byName["assign.place"].Start || routes[1].TS < routes[0].TS {
		t.Fatalf("event timestamps out of order: %+v", routes)
	}

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, st.Flight()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, chrome.String())
	}
	instants := 0
	for _, e := range events {
		if e["ph"] == "i" {
			instants++
		}
	}
	if len(events) != 6 || instants != 3 {
		t.Fatalf("chrome events = %d (%d instants), want 6 (3)", len(events), instants)
	}
}

// TestNilTracerIsNoOp: every method of the disabled tracer and of the nil
// spans it hands out is a no-op.
func TestNilTracerIsNoOp(t *testing.T) {
	var st *SpanTracer
	sp := st.Start("op")
	if sp != nil || st.Enabled() {
		t.Fatal("nil tracer handed out a live span")
	}
	sp.SetAttr("a", "b")
	sp.SetInt("i", 1)
	sp.SetFloat("f", 1)
	sp.SetAny("l", []string{"x"})
	sp.Event("e", map[string]any{"k": 1})
	sp.Child("c").End()
	sp.End()
	if st.Flight() != nil || len(st.Stages()) != 0 {
		t.Fatal("nil tracer holds state")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilTracerAllocs pins the disabled-path cost of a decision: the
// caller's sp != nil guard skips building the event payload, so a
// recorded route costs nothing untraced.
func TestNilTracerAllocs(t *testing.T) {
	var sp *Span
	hops := 3
	allocs := testing.AllocsPerRun(100, func() {
		if sp != nil {
			sp.Event("route", map[string]any{"tt": "x", "hops": hops})
		}
		sp.SetAttr("outcome", "admitted")
	})
	if allocs != 0 {
		t.Fatalf("disabled decision record allocates %v per op", allocs)
	}
}

// TestTracerConcurrent: sibling spans of one trace record their events
// from concurrent goroutines, and every event lands on its own span.
func TestTracerConcurrent(t *testing.T) {
	st := NewSpanTracer(SpanOptions{})
	root := st.Start("core.batch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := root.Child("assign.place")
			for i := 0; i < 100; i++ {
				sp.Event("route", map[string]any{"worker": w, "hops": i})
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	fl := st.Flight()
	if len(fl) != 1 || len(fl[0]) != 9 {
		t.Fatalf("flight = %v", fl)
	}
	for _, r := range fl[0] {
		if r.Name != "assign.place" {
			continue
		}
		if len(r.Events) != 100 {
			t.Fatalf("span %d holds %d events", r.Span, len(r.Events))
		}
		for i, ev := range r.Events {
			if ev.Attrs["hops"] != i || ev.Attrs["worker"] != r.Events[0].Attrs["worker"] {
				t.Fatalf("span %d event %d = %v", r.Span, i, ev.Attrs)
			}
		}
	}
}

func TestFloatUnmarshal(t *testing.T) {
	var f Float
	for in, check := range map[string]func(float64) bool{
		`"-Inf"`: func(v float64) bool { return math.IsInf(v, -1) },
		`"NaN"`:  func(v float64) bool { return math.IsNaN(v) },
		`2.5`:    func(v float64) bool { return v == 2.5 },
	} {
		if err := json.Unmarshal([]byte(in), &f); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !check(float64(f)) {
			t.Fatalf("%s decoded to %v", in, float64(f))
		}
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Fatal("bogus float string accepted")
	}
}

// TestSpanFlightRing checks the ring is bounded and oldest-first.
func TestSpanFlightRing(t *testing.T) {
	st := NewSpanTracer(SpanOptions{FlightSize: 3})
	for i := 0; i < 5; i++ {
		sp := st.Start("op")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	fl := st.Flight()
	if len(fl) != 3 {
		t.Fatalf("flight holds %d traces, want 3", len(fl))
	}
	for k, want := range []int64{2, 3, 4} {
		if got := fl[k][0].Attrs["i"].(int64); got != want {
			t.Fatalf("flight[%d] = op %d, want %d", k, got, want)
		}
	}
}

// TestSpanDisabledZeroAlloc pins the acceptance criterion: the disabled
// span layer (nil tracer, nil spans) performs zero allocations through
// an entire instrumented stage chain.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var st *SpanTracer
	allocs := testing.AllocsPerRun(1000, func() {
		root := st.Start("http.submit")
		root.SetAttr("app", "x")
		child := root.Child("core.submit")
		child.SetInt("paths", 2)
		grand := child.Child("assign.path")
		grand.SetFloat("gamma", 1.5)
		if grand != nil {
			grand.Event("route", map[string]any{"tt": "x"})
		}
		grand.End()
		child.End()
		if root.Duration() != 0 {
			t.Fatal("nil span has a duration")
		}
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span chain allocates %v per run, want 0", allocs)
	}
	if st.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if st.Flight() != nil {
		t.Fatal("nil tracer flight state not empty")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanConcurrentTraces hammers the tracer from many goroutines, each
// building its own trace, as concurrent HTTP requests do before the
// scheduler lock serializes them. Run under -race in CI.
func TestSpanConcurrentTraces(t *testing.T) {
	var jsonl bytes.Buffer
	st := NewSpanTracer(SpanOptions{JSONL: &jsonl, Metrics: NewRegistry(), FlightSize: 8})
	var wg sync.WaitGroup
	const workers = 16
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := st.Start("req")
				c1 := root.Child("decode")
				c1.End()
				c2 := root.Child("submit")
				c2.Child("assign").End()
				c2.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for decoder := json.NewDecoder(&jsonl); decoder.More(); spans++ {
		var r SpanRecord
		if err := decoder.Decode(&r); err != nil {
			t.Fatalf("jsonl stream invalid after concurrent use: %v", err)
		}
	}
	if spans != workers*50*4 {
		t.Fatalf("spans = %d, want %d", spans, workers*50*4)
	}
	if got := st.Stages()["req"].Count; got != workers*50 {
		t.Fatalf("req stage count = %d", got)
	}
}

// TestSpanLateChildDropped: a child ended after its root must not
// corrupt a later trace's buffer.
func TestSpanLateChildDropped(t *testing.T) {
	st := NewSpanTracer(SpanOptions{})
	root := st.Start("op")
	late := root.Child("late")
	root.End()
	late.End() // dropped, not appended to a flushed trace
	fl := st.Flight()
	if len(fl) != 1 || len(fl[0]) != 1 {
		t.Fatalf("flight = %v", fl)
	}
	// Double End is a no-op.
	root.End()
	if len(st.Flight()) != 1 {
		t.Fatal("double End flushed twice")
	}
}
