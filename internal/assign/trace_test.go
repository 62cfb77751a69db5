package assign

import (
	"cmp"
	"slices"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// traceInstance is a 3-CT pipeline over a 4-NCP diamond with two middle
// hosts, so the ranked CT has a real host choice and every TT a route.
func traceInstance(t *testing.T) (*taskgraph.Graph, placement.Pins, *network.Network) {
	t.Helper()
	b := network.NewBuilder("tr")
	src := b.AddNCP("src", nil, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 50}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("s1", src, m1, 1000, 0)
	b.AddLink("s2", src, m2, 1000, 0)
	b.AddLink("k1", m1, snk, 1000, 0)
	b.AddLink("k2", m2, snk, 1000, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustLinear(t, []float64{10}, []float64{1, 1})
	return g, pinEnds(g, src, snk), net
}

// decision is one placement step as an assignment's span records carry
// it: a "pin" event on the bound span, or the pick of an assign.rank span.
type decision struct {
	Step     int64
	CT, Host string
	Pinned   bool
	Gamma    float64
}

// tracedAssign runs a with a span bound and returns the placement, the
// decisions read back from the finished trace, and its span records.
func tracedAssign(t testing.TB, a Sparcle, g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*placement.Placement, []decision, []obs.SpanRecord, error) {
	t.Helper()
	st := obs.NewSpanTracer(obs.SpanOptions{FlightSize: 1})
	a.Span = st.Start("assign.path")
	p, err := a.Assign(g, pins, net, caps)
	a.Span.End()
	recs := st.Flight()[0]
	return p, decisionsOf(recs), recs, err
}

// decisionsOf lists the decisions of one assignment's records in
// placement order: span ids grow in creation order, so the bound span's
// pins come before the ranked picks of its assign.rank children.
func decisionsOf(recs []obs.SpanRecord) []decision {
	recs = slices.Clone(recs)
	slices.SortFunc(recs, func(a, b obs.SpanRecord) int { return cmp.Compare(a.Span, b.Span) })
	var out []decision
	for _, r := range recs {
		switch r.Name {
		case "assign.path":
			for _, ev := range r.Events {
				if ev.Name == "pin" {
					out = append(out, decision{Step: ev.Attrs["step"].(int64), CT: ev.Attrs["ct"].(string), Host: ev.Attrs["host"].(string), Pinned: true})
				}
			}
		case "assign.rank":
			if ct, ok := r.Attrs["ct"].(string); ok {
				out = append(out, decision{Step: r.Attrs["step"].(int64), CT: ct, Host: r.Attrs["host"].(string), Gamma: float64(r.Attrs["gamma"].(obs.Float))})
			}
		}
	}
	return out
}

func TestAssignTraceEvents(t *testing.T) {
	g, pins, net := traceInstance(t)
	_, decisions, recs, err := tracedAssign(t, Sparcle{}, g, pins, net, net.BaseCapacities())
	if err != nil {
		t.Fatal(err)
	}
	// 2 pinned + 1 ranked placement.
	if len(decisions) != 3 || !decisions[0].Pinned || !decisions[1].Pinned {
		t.Fatalf("decisions = %+v", decisions)
	}
	// The lone unplaced CT picks the bigger middle NCP.
	if ranked := decisions[2]; ranked.CT != "ct1" || ranked.Host != "m1" || ranked.Pinned {
		t.Fatalf("ranked = %+v", ranked)
	}
	routes := 0
	for _, r := range recs {
		switch r.Name {
		case "assign.rank":
			// The candidate scores of the iteration are recorded.
			cands, ok := r.Attrs["candidates"].([]map[string]any)
			if !ok || len(cands) != 1 || cands[0]["ct"] != "ct1" {
				t.Fatalf("candidates = %v", r.Attrs["candidates"])
			}
		case "assign.place":
			for _, ev := range r.Events {
				routes++
				if ev.Name != "route" || ev.Attrs["relaxations"].(int64) <= 0 || ev.Attrs["hops"].(int64) < 1 {
					t.Fatalf("route event = %+v", ev)
				}
			}
		}
	}
	// Both TTs are routed when the worker CT lands.
	if routes != 2 {
		t.Fatalf("route events = %d", routes)
	}
}

// TestAssignNoAllocsWhenUntraced pins the telemetry-off contract of the
// hot loop: an explicit nil Span and a nil Metrics registry must follow
// exactly the same allocation profile as the plain zero-value algorithm
// (no candidate lists, no event payloads, no metric series).
func TestAssignNoAllocsWhenUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the recycled assignment scratch randomly under the race detector")
	}
	g, pins, net := traceInstance(t)
	caps := net.BaseCapacities()
	measure := func(a Sparcle) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := a.Assign(g, pins, net, caps); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := measure(Sparcle{})
	untraced := measure(Sparcle{Span: nil})
	if plain != untraced {
		t.Fatalf("nil span changes allocations: %v != %v", untraced, plain)
	}
	unmetered := measure(Sparcle{Metrics: nil})
	if plain != unmetered {
		t.Fatalf("nil metrics registry changes allocations: %v != %v", unmetered, plain)
	}
	traced := measure(Sparcle{Span: obs.NewSpanTracer(obs.SpanOptions{}).Start("assign.path")})
	if traced <= plain {
		t.Fatalf("tracing did not record anything? traced=%v plain=%v", traced, plain)
	}
}

// TestAssignMetrics checks the evaluation-core series: γ evaluations,
// and widest-path cache hit/miss counts appear with plausible values when
// a registry is attached.
func TestAssignMetrics(t *testing.T) {
	g, pins, net := traceInstance(t)
	reg := obs.NewRegistry()
	if _, err := (Sparcle{Metrics: reg}).Assign(g, pins, net, net.BaseCapacities()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	value := func(name string) float64 {
		fam, ok := snap[name]
		if !ok || len(fam.Series) != 1 || fam.Series[0].Value == nil {
			t.Fatalf("metric %s missing from snapshot", name)
		}
		return float64(*fam.Series[0].Value)
	}
	if v := value(metricGammaEvals); v <= 0 {
		t.Fatalf("gamma evals = %v", v)
	}
	if v := value(metricWidestMisses); v <= 0 {
		t.Fatalf("widest cache misses = %v", v)
	}
}
