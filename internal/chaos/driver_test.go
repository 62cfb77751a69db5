package chaos

import (
	"math"
	"strings"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

func grApp(t *testing.T, name string, net *network.Network, cpu float64, qos core.QoS) core.App {
	t.Helper()
	g, err := taskgraph.Linear(name,
		[]resource.Vector{{resource.CPU: cpu}},
		[]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.NCPIDByName("src")
	snk, _ := net.NCPIDByName("snk")
	return core.App{
		Name:  name,
		Graph: g,
		Pins:  placement.Pins{g.Sources()[0]: src, g.Sinks()[0]: snk},
		QoS:   qos,
	}
}

// TestDriverRepairsAroundOutage pins the happy path: a single-path GR app
// loses its host mid-trace, the self-healing loop moves it to the spare
// branch in the same timeline instant, and the delivered availability
// stays 1 even though the analytical single-path bound is lower.
func TestDriverRepairsAroundOutage(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0.05, 0)
	s := core.New(net)
	pa, err := s.Submit(grApp(t, "g", net, 10, core.QoS{
		Class: core.GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	host := pa.Paths[0].P.Host(pa.App.Graph.TopoOrder()[1])
	hostName := net.NCP(host).Name

	tr, err := FromOutages(100, []Outage{
		{Element: placement.NCPElement(host), From: 10, To: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(s, Policy{})
	res, err := d.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 1 || res.Recoveries != 1 {
		t.Fatalf("injections/recoveries = %d/%d, want 1/1", res.Injections, res.Recoveries)
	}
	if res.RepairSuccesses != 1 || res.RepairFailures != 0 {
		t.Fatalf("repair successes/failures = %d/%d, want 1/0 (host %s down)", res.RepairSuccesses, res.RepairFailures, hostName)
	}
	out := res.Outcome("g")
	if out == nil {
		t.Fatal("no outcome for g")
	}
	if out.Delivered != 1 {
		t.Fatalf("delivered = %v, want 1 (repair moved the app at the failure instant)", out.Delivered)
	}
	if out.AnalyticalBound >= 1 {
		t.Fatalf("analytical bound = %v, want < 1 for a fallible single path", out.AnalyticalBound)
	}
	if len(res.OperatorQueue) != 0 {
		t.Fatalf("operator queue = %v, want empty", res.OperatorQueue)
	}
	// The run must leave the scheduler under nominal capacities: a fresh
	// fluctuation report shows no violations.
	rep, err := s.ApplyFluctuation(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 0 {
		t.Fatalf("post-run violations = %v, want none", rep.ViolatedGR)
	}
}

// TestDriverBackoffDisciplineAndDegradedLifecycle is the fake-clock test
// of the acceptance criteria: with every host dead, repair attempts must
// be separated by at least the policy's backoff floor (zero hot-loop
// retries), the episode must park the app in the degraded state after
// MaxAttempts, and the recovery event must requeue it, where the heal
// check cancels the now-unnecessary repair.
func TestDriverBackoffDisciplineAndDegradedLifecycle(t *testing.T) {
	net := twoBranchNet(t, 100, 0, 1e6, 0.05, 0) // m2 unusable: no spare
	s := core.New(net)
	if _, err := s.Submit(grApp(t, "g", net, 10, core.QoS{
		Class: core.GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	m1 := ncpElem(t, net, "m1")
	tr, err := FromOutages(200, []Outage{{Element: m1, From: 5, To: 80}})
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{MaxAttempts: 3, BaseBackoff: 1, MaxBackoff: 60, Jitter: 0.1, Seed: 1}
	d := NewDriver(s, pol)
	res, err := d.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairAttempts != 3 || res.RepairFailures != 3 {
		t.Fatalf("attempts/failures = %d/%d, want 3/3", res.RepairAttempts, res.RepairFailures)
	}
	if res.BackoffRetries != 2 {
		t.Fatalf("backoff retries = %d, want 2", res.BackoffRetries)
	}
	if res.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1", res.GiveUps)
	}
	if res.Healed != 1 {
		t.Fatalf("healed = %d, want 1 (recovery restored the placement before the requeued repair)", res.Healed)
	}
	if len(res.OperatorQueue) != 0 {
		t.Fatalf("operator queue = %v, want empty after recovery requeue", res.OperatorQueue)
	}

	// Zero hot-loop retries: consecutive failed attempts of one episode
	// must be separated by at least MinDelay(attempt) on the virtual
	// clock.
	var fails []AttemptRecord
	for _, a := range res.Attempts {
		if a.App == "g" && (a.Outcome == "failed" || a.Outcome == "gave-up") {
			fails = append(fails, a)
		}
	}
	if len(fails) != 3 {
		t.Fatalf("failed attempts = %d, want 3: %+v", len(fails), res.Attempts)
	}
	for i := 1; i < len(fails); i++ {
		gap := fails[i].At - fails[i-1].At
		if floor := pol.MinDelay(fails[i-1].Attempt); gap < floor-1e-9 {
			t.Fatalf("attempt %d fired %.4fs after attempt %d, below the backoff floor %.4fs (hot loop)",
				fails[i].Attempt, gap, fails[i-1].Attempt, floor)
		}
		if ceil := pol.BaseBackoff * math.Pow(2, float64(fails[i-1].Attempt-1)) * (1 + pol.Jitter); gap > ceil+1e-9 {
			t.Fatalf("attempt %d fired %.4fs after attempt %d, above the jitter ceiling %.4fs", fails[i].Attempt, gap, fails[i-1].Attempt, ceil)
		}
	}

	// Degraded bookkeeping: parked at the give-up instant, requeued and
	// healed at the recovery, so DegradedSeconds = 80 - give-up time.
	out := res.Outcome("g")
	giveUpAt := fails[2].At
	if want := 80 - giveUpAt; math.Abs(out.DegradedSeconds-want) > 1e-9 {
		t.Fatalf("degraded seconds = %v, want %v", out.DegradedSeconds, want)
	}
	// Delivered availability is exactly the up fraction: down [5, 80).
	if want := (200.0 - 75) / 200; math.Abs(out.Delivered-want) > 1e-9 {
		t.Fatalf("delivered = %v, want %v", out.Delivered, want)
	}
}

// TestDriverStormBudget pins that a mass failure cannot fan out into an
// unbounded burst of Repair calls at one timeline instant.
func TestDriverStormBudget(t *testing.T) {
	// Three GR apps on three independent branches, all killed by one
	// trace event.
	b := network.NewBuilder("threebranch")
	src := b.AddNCP("src", nil, 0)
	snk := b.AddNCP("snk", nil, 0)
	var mids []network.NCPID
	for _, name := range []string{"m1", "m2", "m3"} {
		m := b.AddNCP(name, resource.Vector{resource.CPU: 100}, 0.05)
		b.AddLink("s"+name, src, m, 1e6, 0)
		b.AddLink(name+"k", m, snk, 1e6, 0)
		mids = append(mids, m)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(net)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := s.Submit(grApp(t, name, net, 10, core.QoS{
			Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.9, MaxPaths: 1,
		})); err != nil {
			t.Fatal(err)
		}
	}
	var outs []Outage
	for _, m := range mids {
		outs = append(outs, Outage{Element: placement.NCPElement(m), From: 10, To: 250})
	}
	tr, err := FromOutages(300, outs)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(s, Policy{MaxAttempts: 2, BaseBackoff: 1, Jitter: -1 /* default 0.1 */, StormBudget: 1})
	res, err := d.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	perInstant := map[float64]int{}
	apps := map[string]bool{}
	for _, a := range res.Attempts {
		if a.Outcome == "healed" {
			continue
		}
		perInstant[a.At]++
		apps[a.App] = true
	}
	for at, n := range perInstant {
		if n > 1 {
			t.Fatalf("%d repair attempts at t=%v exceed the storm budget of 1", n, at)
		}
	}
	if len(apps) != 3 {
		t.Fatalf("apps attempted = %v, want all of a, b, c (deferred, not dropped)", apps)
	}
}

// TestDriverMeasuredVsAnalytical is the seeded end-to-end check: a
// generated trace replayed against a self-healing scheduler must deliver
// at least the analytical admission bound minus a small tolerance for
// every GR app, and beat the static (no-repair) timeline.
func TestDriverMeasuredVsAnalytical(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0, 0.02)
	s := core.New(net)
	pa, err := s.Submit(grApp(t, "g", net, 10, core.QoS{
		Class: core.GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	bound := pa.Availability
	if bound <= 0.9 || bound >= 1 {
		t.Fatalf("analytical bound = %v, want in (0.9, 1)", bound)
	}
	static := AnalyticTimeline([]*core.PlacedApp{pa}, mustGenerate(t, net, TraceConfig{Horizon: 5000, Seed: 7, MTTR: 10}))

	tr := mustGenerate(t, net, TraceConfig{Horizon: 5000, Seed: 7, MTTR: 10})
	d := NewDriver(s, Policy{Seed: 7})
	res, err := d.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome("g")
	const tol = 0.02
	if out.Delivered < bound-tol {
		t.Fatalf("delivered = %.4f < analytical bound %.4f - %.2f", out.Delivered, bound, tol)
	}
	if out.Delivered < static[0].Delivered-1e-9 {
		t.Fatalf("self-healing delivered %.4f, below the static no-repair timeline %.4f", out.Delivered, static[0].Delivered)
	}
	t.Logf("bound=%.4f static=%.4f healed=%.4f repairs=%d", bound, static[0].Delivered, out.Delivered, res.RepairSuccesses)
}

func mustGenerate(t *testing.T, net *network.Network, cfg TraceConfig) *Trace {
	t.Helper()
	tr, err := Generate(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDriverTelemetry checks the metric families and chaos timeline spans
// a run leaves behind on the scheduler's span tracer, with the
// scheduler's own operations nested under the steps that ran them.
func TestDriverTelemetry(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0.05, 0)
	s := core.New(net)
	if _, err := s.Submit(grApp(t, "g", net, 10, core.QoS{
		Class: core.GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	spans := obs.NewSpanTracer(obs.SpanOptions{FlightSize: 1024})
	s.SetSpans(spans)
	m1 := ncpElem(t, net, "m1")
	m2 := ncpElem(t, net, "m2")
	tr, err := FromOutages(100, []Outage{
		{Element: m1, From: 10, To: 60},
		{Element: m2, From: 10, To: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(s, Policy{MaxAttempts: 2}, WithMetrics(reg))
	res, err := d.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checkCounter := func(name string, want float64, labels map[string]string) {
		t.Helper()
		got := findSeries(snap[name], labels)
		if got == nil || float64(*got.Value) != want {
			t.Errorf("%s%v = %v, want %v", name, labels, got, want)
		}
	}
	checkCounter(metricInjections, 2, nil)
	checkCounter(metricRecoveries, 2, nil)
	checkCounter(metricRepairs, float64(res.RepairFailures), map[string]string{"outcome": "failed"})
	checkCounter(metricGiveUps, float64(res.GiveUps), nil)
	if g := findSeries(snap[metricDegradedApps], nil); g == nil || *g.Value != 0 {
		t.Errorf("degraded gauge = %v, want 0 after the run", g)
	}
	if g := findSeries(snap[metricDelivered], map[string]string{"app": "g"}); g == nil || *g.Value <= 0 || *g.Value > 1 {
		t.Errorf("delivered gauge = %v, want in (0, 1]", g)
	}
	if g := findSeries(snap[metricDegradedTime], nil); g == nil || *g.Value <= 0 {
		t.Errorf("degraded seconds = %v, want > 0 (both hosts were down)", g)
	}

	kinds := map[string]int{}
	for _, trace := range spans.Flight() {
		root := trace[len(trace)-1]
		if !strings.HasPrefix(root.Name, "chaos.") {
			continue // the end-of-run restore to nominal capacities
		}
		if _, ok := root.Attrs["at"].(obs.Float); !ok || root.Parent != 0 {
			t.Errorf("timeline span %q has no virtual time or is not a root: %+v", root.Name, root)
		}
		kinds[root.Name]++
		for _, r := range trace[:len(trace)-1] {
			if r.Parent != root.Span {
				continue
			}
			switch {
			case root.Name == "chaos.repair" && r.Name == "core.repair":
				if r.Attrs["outcome"] != root.Attrs["outcome"] && root.Attrs["outcome"] != "gave-up" {
					t.Errorf("core.repair outcome %v under chaos.repair %v", r.Attrs["outcome"], root.Attrs["outcome"])
				}
				kinds["nested repair"]++
			case (root.Name == "chaos.inject" || root.Name == "chaos.recover") && r.Name == "core.fluctuation":
				kinds["nested fluctuation"]++
			}
		}
	}
	for _, k := range []string{"chaos.inject", "chaos.recover", "chaos.repair", "chaos.give-up", "chaos.requeue", "chaos.heal", "nested repair", "nested fluctuation"} {
		if kinds[k] == 0 {
			t.Errorf("no %q in the span trace: %v", k, kinds)
		}
	}
	if kinds["nested repair"] != res.RepairAttempts {
		t.Errorf("%d core.repair spans under chaos.repair, want %d", kinds["nested repair"], res.RepairAttempts)
	}
}

// findSeries returns the series with the given label subset, or nil.
func findSeries(fam obs.FamilySnapshot, want map[string]string) *obs.SeriesSnapshot {
	for i, s := range fam.Series {
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return &fam.Series[i]
		}
	}
	return nil
}

// TestNilRegistryChaosMetricsAllocationFree pins that the chaos metric
// paths are free when telemetry is disabled (nil registry).
func TestNilRegistryChaosMetricsAllocationFree(t *testing.T) {
	var r *obs.Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter(metricInjections).Inc()
		r.Counter(metricRepairs, obs.L("outcome", "repaired")).Inc()
		r.Gauge(metricDegradedApps).Add(1)
		r.Gauge(metricDelivered, obs.L("app", "g")).Set(0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry chaos telemetry allocates %v per run, want 0", allocs)
	}
}
