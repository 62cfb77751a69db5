package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sparcle/internal/assign"
	"sparcle/internal/avail"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// twoBranchNet builds a star-ish network with a source, a sink and two
// independent middle NCPs, with optional element failure probabilities.
func twoBranchNet(t *testing.T, cpu1, cpu2, bw, linkPf float64) *network.Network {
	t.Helper()
	b := network.NewBuilder("twobranch")
	src := b.AddNCP("src", nil, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: cpu1}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: cpu2}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("s1", src, m1, bw, linkPf)
	b.AddLink("s2", src, m2, bw, linkPf)
	b.AddLink("m1k", m1, snk, bw, linkPf)
	b.AddLink("m2k", m2, snk, bw, linkPf)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func simpleApp(t *testing.T, name string, net *network.Network, cpu float64, qos QoS) App {
	t.Helper()
	g, err := taskgraph.Linear(name,
		[]resource.Vector{{resource.CPU: cpu}},
		[]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.NCPIDByName("src")
	snk, _ := net.NCPIDByName("snk")
	return App{
		Name:  name,
		Graph: g,
		Pins:  placement.Pins{g.Sources()[0]: src, g.Sinks()[0]: snk},
		QoS:   qos,
	}
}

func TestSubmitBESinglePath(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	s := New(net)
	pa, err := s.Submit(simpleApp(t, "a", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Paths) != 1 {
		t.Fatalf("paths = %d, want 1 (no availability requirement)", len(pa.Paths))
	}
	// Alone in the network it gets the full bottleneck rate 100/10 = 10.
	if got := pa.TotalRate(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("rate = %v, want 10", got)
	}
	if pa.Availability != 1 {
		t.Fatalf("availability = %v, want 1 with no failures", pa.Availability)
	}
}

func TestSubmitBEPrioritySharing(t *testing.T) {
	// Two identical BE apps with P1 = 2*P2 sharing one bottleneck NCP:
	// rates must split 2:1 (Theorem 3).
	net := twoBranchNet(t, 90, 0, 1e9, 0) // only m1 usable
	s := New(net)
	a1, err := s.Submit(simpleApp(t, "a1", net, 10, QoS{Class: BestEffort, Priority: 2}))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(simpleApp(t, "a2", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := a1.TotalRate(), a2.TotalRate()
	if math.Abs(r1-6) > 0.05 || math.Abs(r2-3) > 0.05 {
		t.Fatalf("rates = %v, %v; want 6, 3", r1, r2)
	}
	// Utility must be finite and match the definition.
	wantU := 2*math.Log(r1) + 1*math.Log(r2)
	if got := s.Utility(); math.Abs(got-wantU) > 1e-9 {
		t.Fatalf("utility = %v, want %v", got, wantU)
	}
}

func TestSubmitBEAvailabilityAddsPaths(t *testing.T) {
	// Fig. 10(a) in miniature: 2% link failure probability; one path has
	// availability ~0.98^2 = 0.9604; requesting 0.97 forces a second path.
	net := twoBranchNet(t, 100, 100, 1e6, 0.02)
	s := New(net)
	pa, err := s.Submit(simpleApp(t, "a", net, 10, QoS{
		Class: BestEffort, Priority: 1, Availability: 0.97,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(pa.Paths))
	}
	if pa.Availability < 0.97 {
		t.Fatalf("availability = %v, want >= 0.97", pa.Availability)
	}
	// Single-path availability would have been ~0.9604; with two disjoint
	// 2-link branches: 1 - (1-0.9604)^2 ~ 0.99843.
	if math.Abs(pa.Availability-0.99843) > 0.001 {
		t.Fatalf("availability = %v, want ~0.99843", pa.Availability)
	}
}

func TestSubmitBERejectsImpossibleAvailability(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0.5)
	s := New(net)
	_, err := s.Submit(simpleApp(t, "a", net, 10, QoS{
		Class: BestEffort, Priority: 1, Availability: 0.999, MaxPaths: 2,
	}))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if len(s.BEApps()) != 0 {
		t.Fatal("rejected app must not be recorded")
	}
}

func TestSubmitGRReservesAndAdmits(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	s := New(net)
	pa, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if pa.Availability != 1 {
		t.Fatalf("availability = %v, want 1 with no failures", pa.Availability)
	}
	if got := s.TotalGRRate(); got < 5 {
		t.Fatalf("total GR rate = %v, want >= 5", got)
	}
	// The reservation must shrink what BE apps can get.
	caps := s.BEAvailableCapacities()
	m1, _ := net.NCPIDByName("m1")
	if caps.Get(m1, resource.CPU) >= 100 {
		t.Fatal("GR reservation did not reduce BE capacities")
	}
}

// TestDemandOnUnofferedKind pins a CT that needs a kind no NCP offers
// ("gpu" on a network of cpu/memory NCPs): that kind has capacity zero on
// every NCP, so every placement of the CT has rate 0. Algorithm 2 still
// returns a complete placement, whose rate is 0, and Submit rejects the
// application in either class.
func TestDemandOnUnofferedKind(t *testing.T) {
	b := network.NewBuilder("nogpu")
	src := b.AddNCP("src", resource.Vector{resource.CPU: 10, resource.Memory: 8}, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100, resource.Memory: 64}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 50, resource.Memory: 32}, 0)
	snk := b.AddNCP("snk", resource.Vector{resource.CPU: 10, resource.Memory: 8}, 0)
	b.AddLink("s1", src, m1, 1e3, 0)
	b.AddLink("s2", src, m2, 1e3, 0)
	b.AddLink("m1k", m1, snk, 1e3, 0)
	b.AddLink("m2k", m2, snk, 1e3, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := taskgraph.Linear("gpuapp", []resource.Vector{{resource.CPU: 10, "gpu": 1}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	pins := placement.Pins{g.Sources()[0]: src, g.Sinks()[0]: snk}
	caps := net.BaseCapacities()

	// A hand placement on the richest NCP.
	p := placement.New(g, net)
	work := g.TopoOrder()[1]
	for ct, host := range map[taskgraph.CTID]network.NCPID{g.Sources()[0]: src, work: m1, g.Sinks()[0]: snk} {
		if err := p.PlaceCT(ct, host); err != nil {
			t.Fatal(err)
		}
	}
	for tt, route := range [][]network.LinkID{{0}, {2}} {
		if err := p.PlaceTT(taskgraph.TTID(tt), route); err != nil {
			t.Fatal(err)
		}
	}
	if r := p.Rate(caps); r != 0 {
		t.Fatalf("hand placement rate = %v, want 0", r)
	}

	got, err := assign.Sparcle{}.Assign(g, pins, net, caps)
	if err != nil {
		t.Fatalf("Algorithm 2: %v, want a rate-0 placement", err)
	}
	if r := got.Rate(caps); r != 0 {
		t.Fatalf("Algorithm 2 placement rate = %v, want 0", r)
	}

	s := New(net)
	for _, qos := range []QoS{
		{Class: BestEffort, Priority: 1},
		{Class: GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5},
	} {
		if _, err := s.Submit(App{Name: "gpu", Graph: g, Pins: pins, QoS: qos}); !errors.Is(err, ErrRejected) {
			t.Fatalf("%v: Submit err = %v, want ErrRejected", qos.Class, err)
		}
	}
	if !reflect.DeepEqual(s.BEAvailableCapacities(), net.BaseCapacities()) {
		t.Fatal("a rejected application changed the BE pool")
	}
}

func TestSubmitGRRejectsWhenUnsatisfiable(t *testing.T) {
	net := twoBranchNet(t, 10, 10, 1e6, 0)
	s := New(net)
	// Max achievable rate is 1+1 = 2 < requested 5.
	_, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.5,
	}))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// State must be untouched: a feasible app still gets full capacity.
	pa, err := s.Submit(simpleApp(t, "g2", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if pa.TotalRate() < 1 {
		t.Fatalf("rate = %v", pa.TotalRate())
	}
}

func TestSubmitGRMultiPathAvailability(t *testing.T) {
	// Fig. 10(b) in miniature: with failing links, one path cannot reach
	// the min-rate availability; two can.
	net := twoBranchNet(t, 100, 100, 1e6, 0.1)
	s := New(net)
	pa, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Paths) < 2 {
		t.Fatalf("paths = %d, want >= 2", len(pa.Paths))
	}
	if pa.Availability < 0.9 {
		t.Fatalf("availability = %v", pa.Availability)
	}
}

func TestGRPlusBECoexistence(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0)
	s := New(net)
	if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	be, err := s.Submit(simpleApp(t, "b", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// GR reserved m1 fully (rate 10 * cpu 10 = 100); BE gets m2: rate 10.
	if got := be.TotalRate(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("BE rate = %v, want 10", got)
	}
	// A later GR app shrinks BE capacity and triggers reallocation.
	if _, err := s.Submit(simpleApp(t, "g2", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 4, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	if got := be.TotalRate(); got >= 10 {
		t.Fatalf("BE rate after GR admission = %v, want < 10", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0)
	s := New(net)
	if _, err := s.Submit(App{Name: "nil"}); err == nil {
		t.Fatal("nil graph must error")
	}
	app := simpleApp(t, "x", net, 10, QoS{})
	if _, err := s.Submit(app); err == nil {
		t.Fatal("unknown class must error")
	}
	app.QoS = QoS{Class: BestEffort, Priority: 0}
	if _, err := s.Submit(app); err == nil {
		t.Fatal("BE without priority must error")
	}
	app.QoS = QoS{Class: GuaranteedRate, MinRate: 0}
	if _, err := s.Submit(app); err == nil {
		t.Fatal("GR without min rate must error")
	}
	app.QoS = QoS{Class: BestEffort, Priority: 1, MaxPaths: avail.MaxPaths + 1}
	if _, err := s.Submit(app); err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("MaxPaths past avail.MaxPaths: err = %v, want a spec error", err)
	}
}

func TestRemoveBEReallocatesPeers(t *testing.T) {
	// Two equal BE apps share the only usable NCP; when one leaves, the
	// survivor's rate on its unchanged path must double. A held placement's
	// rates are as of the last settle, so the survivor is read back
	// through BEApps, which settles.
	net := twoBranchNet(t, 90, 0, 1e9, 0)
	s := New(net)
	a, err := s.Submit(simpleApp(t, "a", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(simpleApp(t, "b", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
		t.Fatal(err)
	}
	shared := a.TotalRate()
	if math.Abs(shared-4.5) > 0.05 {
		t.Fatalf("shared rate = %v, want ~4.5", shared)
	}
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	be := s.BEApps()
	if len(be) != 1 || be[0] != a {
		t.Fatalf("BE residents after removal = %v, want only a", be)
	}
	if got := be[0].TotalRate(); math.Abs(got-9) > 0.05 {
		t.Fatalf("rate after peer removal = %v, want ~9", got)
	}
	if err := s.Remove("nope"); err == nil {
		t.Fatal("removing unknown app must error")
	}
}

func TestRemoveGRRestoresCapacityPool(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	s := New(net)
	if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	m1, _ := net.NCPIDByName("m1")
	if got := s.BEAvailableCapacities().Get(m1, resource.CPU); got >= 100 {
		t.Fatalf("reservation missing: %v", got)
	}
	if err := s.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if len(s.GRApps()) != 0 {
		t.Fatal("GR app not removed")
	}
	if got := s.BEAvailableCapacities().Get(m1, resource.CPU); got != 100 {
		t.Fatalf("capacity after removal = %v, want 100", got)
	}
}

// TestRemoveLeavesOnlyZeroedBE: a GR reservation takes every element BE
// app "a" crosses down to zero capacity while "b" keeps a positive-capacity
// branch. Removing "b" leaves the solver only zeroed flows — an answer
// (rate 0), not a failure: Remove succeeds and journals the removal "ok".
func TestRemoveLeavesOnlyZeroedBE(t *testing.T) {
	net := twoBranchNet(t, 100, 60, 10, 0)
	var recs []*Record
	s := New(net)
	s.SetCommitHook(func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	a, err := s.Submit(simpleApp(t, "a", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(simpleApp(t, "b", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Rate 10 reserves the whole m1 branch: its cpu (10·10) and both
	// 10-wide links.
	if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 10, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	if a.TotalRate() != 0 || b.TotalRate() <= 0 {
		t.Fatalf("after the reservation a = %v, b = %v; want a zeroed on m1, b served on m2", a.TotalRate(), b.TotalRate())
	}
	if err := s.Remove("b"); err != nil {
		t.Fatalf("Remove leaving only zeroed flows: %v", err)
	}
	if got := a.TotalRate(); got != 0 {
		t.Fatalf("survivor rate = %v, want 0", got)
	}
	if last := recs[len(recs)-1]; last.Op != OpRemove || last.Outcome != "ok" {
		t.Fatalf("last record = %s/%s (%s), want remove/ok", last.Op, last.Outcome, last.Reason)
	}
}

func TestClassString(t *testing.T) {
	if BestEffort.String() != "best-effort" || GuaranteedRate.String() != "guaranteed-rate" {
		t.Fatal("class names wrong")
	}
	if Class(0).String() != "Class(0)" {
		t.Fatal("unknown class formatting wrong")
	}
}

func TestArrivalOrderFairness(t *testing.T) {
	// Eq. (6)'s purpose: two equal-priority apps must end with (nearly)
	// equal rates regardless of arrival order.
	rates := func(first, second string) (float64, float64) {
		net := twoBranchNet(t, 90, 0, 1e9, 0)
		s := New(net)
		a, err := s.Submit(simpleApp(t, first, net, 10, QoS{Class: BestEffort, Priority: 1}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Submit(simpleApp(t, second, net, 10, QoS{Class: BestEffort, Priority: 1}))
		if err != nil {
			t.Fatal(err)
		}
		return a.TotalRate(), b.TotalRate()
	}
	r1a, r1b := rates("x", "y")
	if math.Abs(r1a-r1b) > 0.05*r1a {
		t.Fatalf("equal-priority apps got %v and %v", r1a, r1b)
	}
}

// TestSubmitRejectsNonFiniteQoS: a priority, min rate or availability
// target that is not a positive finite number never reaches the solver or
// the reservation arithmetic, and the refusal leaves the scheduler as it
// was.
func TestSubmitRejectsNonFiniteQoS(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0.01)
	s := New(net)
	if _, err := s.Submit(simpleApp(t, "be", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(simpleApp(t, "gr", net, 10, QoS{Class: GuaranteedRate, MinRate: 1, MinRateAvailability: 0.9})); err != nil {
		t.Fatal(err)
	}
	before := stateJSON(t, s)
	nan := math.NaN()
	var cases []QoS
	for _, v := range []float64{nan, math.Inf(1), math.Inf(-1), 0, -1} {
		cases = append(cases,
			QoS{Class: BestEffort, Priority: v},
			QoS{Class: GuaranteedRate, MinRate: v, MinRateAvailability: 0.9})
	}
	cases = append(cases,
		QoS{Class: BestEffort, Priority: 1, Availability: nan},
		QoS{Class: GuaranteedRate, MinRate: 1, MinRateAvailability: nan})
	for _, qos := range cases {
		if pa, err := s.Submit(simpleApp(t, "bad", net, 10, qos)); err == nil {
			t.Fatalf("QoS %+v admitted: %+v", qos, pa)
		}
		if after := stateJSON(t, s); after != before {
			t.Fatalf("QoS %+v changed the scheduler:\n before %s\n after  %s", qos, before, after)
		}
	}
}

func TestProportionalFairSharesCapacityNotRate(t *testing.T) {
	// Two equal-priority apps share one NCP with different per-unit
	// demands: problem (4) splits the *capacity* by priority share, so
	// x_i = (w_i/sum w) * C/a_i — light 9, heavy 4.5.
	net := twoBranchNet(t, 90, 0, 1e9, 0)
	s := New(net)
	light, err := s.Submit(simpleApp(t, "light", net, 5, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := s.Submit(simpleApp(t, "heavy", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if l, h := light.TotalRate(), heavy.TotalRate(); math.Abs(l-9) > 0.1 || math.Abs(h-4.5) > 0.1 {
		t.Fatalf("PF rates = %v, %v; want ~9, ~4.5", l, h)
	}
}
