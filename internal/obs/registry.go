// Package obs is SPARCLE's zero-dependency telemetry layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) exposable in Prometheus text-exposition format and as a
// JSON snapshot, a structured leveled logger with a silent default, and
// hierarchical spans that time the admission pipeline and carry the
// scheduler's key choices (task rankings, transport routes, admissions,
// repairs and rate allocations) as attributes and events.
//
// Everything is optional and nil-safe: a nil *Registry hands out nil
// metrics whose methods are no-ops, a nil *SpanTracer hands out nil
// spans, and NopLogger discards all records. Library code
// therefore instruments unconditionally and stays silent — and
// allocation-free on hot paths — unless a sink is attached.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricType enumerates the supported metric kinds.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// DefBuckets are the default latency buckets (seconds) for histograms,
// spanning microsecond placements to multi-second solver runs.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry is a concurrency-safe collection of metric families. The
// zero value is not usable; call NewRegistry. All methods are safe on a
// nil receiver (they return nil metrics, whose methods are no-ops), so
// instrumented code needs no nil checks of its own.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family groups every label combination (series) of one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64 // histogram upper bounds, ascending
	series  map[string]*series
}

// series is one (name, labels) time series.
type series struct {
	labels []Label
	key    string

	// bits holds the float64 value of counters and gauges.
	bits atomic.Uint64
	// hist is non-nil for histogram series.
	hist *histogramState
}

type histogramState struct {
	buckets []float64       // upper bounds, ascending (copied from the family)
	counts  []atomic.Uint64 // one per bucket, plus a final +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// SetHelp sets the HELP text emitted for a metric name. Calling it
// before or after the first series exists are both fine.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
		return
	}
	r.families[name] = &family{name: name, help: help, series: map[string]*series{}}
}

// getSeries returns the series for (name, labels), creating family and
// series as needed. It panics when the name is reused with a different
// metric type — a programming error, not an operational condition.
func (r *Registry) getSeries(name string, typ metricType, buckets []float64, labels []Label) *series {
	// The lookup key is rendered into a stack buffer and converted only
	// inside the map index, which the compiler does without allocating:
	// finding an existing series costs no garbage.
	var buf [128]byte
	kb := appendLabelKey(buf[:0], labels)
	r.mu.RLock()
	f, ok := r.families[name]
	if ok && f.typ == typ {
		if s, ok := f.series[string(kb)]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()
	key := string(kb)

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.familyLocked(name, typ, buckets)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		if typ == typeHistogram {
			s.hist = &histogramState{
				buckets: f.buckets,
				counts:  make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
		f.series[key] = s
	}
	return s
}

// familyLocked returns the family name, creating it or fixing its type
// on first use. It panics when the name is reused with a different
// metric type. The caller holds the write lock.
func (r *Registry) familyLocked(name string, typ metricType, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.typ == "" {
		f.typ = typ
		if typ == typeHistogram {
			f.buckets = append([]float64(nil), buckets...)
			sort.Float64s(f.buckets)
		}
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter series name{labels}, creating it on first
// use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return (*Counter)(r.getSeries(name, typeCounter, nil, labels))
}

// Gauge returns the gauge series name{labels}, creating it on first
// use. Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return (*Gauge)(r.getSeries(name, typeGauge, nil, labels))
}

// Histogram returns the histogram series name{labels} with the given
// upper bucket bounds (a final +Inf bucket is implicit). The bounds are
// fixed by the first call for the name; later calls ignore the
// argument. Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return (*Histogram)(r.getSeries(name, typeHistogram, buckets, labels))
}

// Sample is one series of a gauge family: its labels and its value.
type Sample struct {
	Labels []Label
	Value  float64
}

// ReplaceGauges makes the gauge family name hold exactly samples, whose
// label slices it keeps. The swap happens under the registry lock, so a
// concurrent scrape sees the family whole before or whole after it, and
// a series left out of samples is gone without anyone deleting it: a
// family rendered from state at scrape needs no per-series bookkeeping.
func (r *Registry) ReplaceGauges(name string, samples []Sample) {
	if r == nil {
		return
	}
	fresh := make(map[string]*series, len(samples))
	for _, sm := range samples {
		s := &series{labels: sm.Labels, key: labelKey(sm.Labels)}
		s.bits.Store(math.Float64bits(sm.Value))
		fresh[s.key] = s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, typeGauge, nil).series = fresh
}

// DeleteSeries removes the series name{labels} if it exists (e.g. the
// rate gauge of a withdrawn application). Deleting an unknown series is
// a no-op.
func (r *Registry) DeleteSeries(name string, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		delete(f.series, labelKey(labels))
	}
}

// Counter is a monotonically increasing float64. All methods are no-ops
// on a nil receiver.
type Counter series

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	addFloat(&c.bits, delta)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an arbitrarily settable float64. All methods are no-ops on a
// nil receiver.
type Gauge series

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (delta may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. All methods are
// no-ops on a nil receiver.
type Histogram series

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.hist.buckets, v) // first bucket with bound >= v
	h.hist.counts[i].Add(1)
	h.hist.count.Add(1)
	addFloat(&h.hist.sumBits, v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.hist.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.hist.sumBits.Load())
}

// addFloat atomically adds delta to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// labelKey renders labels into the canonical `k1="v1",k2="v2"` form used
// both as the map key and in the text exposition. Labels are sorted by
// key so call-site order does not create duplicate series.
func labelKey(labels []Label) string {
	return string(appendLabelKey(nil, labels))
}

// appendLabelKey appends labelKey's rendering to dst. Labels that arrive
// in key order with nothing to escape — every per-request lookup of the
// serving path — are rendered as they are: no copy, no sort, no escaped
// copy of a value.
func appendLabelKey(dst []byte, labels []Label) []byte {
	for i := 1; i < len(labels); i++ {
		if labels[i].Key < labels[i-1].Key {
			sorted := append([]Label(nil), labels...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key < sorted[b].Key })
			labels = sorted
			break
		}
	}
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=', '"')
		dst = append(dst, escapeLabel(l.Value)...)
		dst = append(dst, '"')
	}
	return dst
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a metric value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
