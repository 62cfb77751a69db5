package sparcle_test

import (
	"bytes"
	"errors"
	"testing"

	"sparcle"
)

// TestPublicAPIEndToEnd exercises the exported facade exactly as an
// external user would: build, schedule, simulate.
func TestPublicAPIEndToEnd(t *testing.T) {
	nb := sparcle.NewNetworkBuilder("edge")
	sensor := nb.AddNCP("sensor", nil, 0)
	worker := nb.AddNCP("worker", sparcle.Resources{sparcle.CPU: 1000}, 0)
	gateway := nb.AddNCP("gateway", nil, 0)
	nb.AddLink("s-w", sensor, worker, 100, 0)
	nb.AddLink("w-g", worker, gateway, 100, 0)
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}

	tb := sparcle.NewTaskGraphBuilder("pipeline")
	src := tb.AddCT("src", nil)
	work := tb.AddCT("work", sparcle.Resources{sparcle.CPU: 100})
	snk := tb.AddCT("snk", nil)
	tb.AddTT("in", src, work, 10)
	tb.AddTT("out", work, snk, 1)
	graph, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pins := sparcle.Pins{src: sensor, snk: gateway}

	// Direct assignment.
	p, rate, err := sparcle.AssignOnce(graph, pins, net)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || p.Host(work) != worker {
		t.Fatalf("rate=%v host=%v", rate, p.Host(work))
	}

	// Multi-path.
	paths, err := sparcle.MultiPathAssign(graph, pins, net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || paths[0].Rate != rate {
		t.Fatalf("paths = %+v", paths)
	}

	// Full scheduler.
	sched := sparcle.NewScheduler(net, sparcle.WithRandSeed(2), sparcle.WithDefaultMaxPaths(2))
	placed, err := sched.Submit(sparcle.App{
		Name:  "pipeline",
		Graph: graph,
		Pins:  pins,
		QoS:   sparcle.QoS{Class: sparcle.BestEffort, Priority: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if placed.TotalRate() <= 0 {
		t.Fatal("zero allocated rate")
	}

	// Rejection surfaces through the exported sentinel.
	_, err = sched.Submit(sparcle.App{
		Name:  "impossible",
		Graph: graph,
		Pins:  pins,
		QoS:   sparcle.QoS{Class: sparcle.GuaranteedRate, MinRate: 1e12, MinRateAvailability: 0.9},
	})
	if !errors.Is(err, sparcle.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}

	// Simulation through the facade.
	sim := sparcle.NewSimulator(net)
	if err := sim.AddApp(placed.Paths[0].P, placed.Paths[0].Rate*0.5); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(sparcle.SimConfig{Duration: 200, Warmup: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Apps[0].Throughput <= 0 {
		t.Fatal("no simulated throughput")
	}

	// DynamicRanking is usable as a swappable Algorithm.
	var alg sparcle.Algorithm = sparcle.DynamicRanking()
	if alg.Name() != "SPARCLE" {
		t.Fatalf("algorithm name = %q", alg.Name())
	}
	if r := sparcle.NewRand(1); r == nil {
		t.Fatal("NewRand returned nil")
	}
}

// TestPublicAPIFluctuationAndRepair exercises the dynamics extensions
// through the facade.
func TestPublicAPIFluctuationAndRepair(t *testing.T) {
	nb := sparcle.NewNetworkBuilder("edge")
	src := nb.AddNCP("src", nil, 0)
	w1 := nb.AddNCP("w1", sparcle.Resources{sparcle.CPU: 100}, 0)
	w2 := nb.AddNCP("w2", sparcle.Resources{sparcle.CPU: 80}, 0)
	snk := nb.AddNCP("snk", nil, 0)
	nb.AddLink("a", src, w1, 1e6, 0)
	nb.AddLink("b", src, w2, 1e6, 0)
	nb.AddLink("c", w1, snk, 1e6, 0)
	nb.AddLink("d", w2, snk, 1e6, 0)
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := sparcle.NewTaskGraphBuilder("app")
	s := tb.AddCT("s", nil)
	work := tb.AddCT("w", sparcle.Resources{sparcle.CPU: 10})
	k := tb.AddCT("k", nil)
	tb.AddTT("in", s, work, 1)
	tb.AddTT("out", work, k, 1)
	g, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	spans := sparcle.NewSpanTracer(&trace)
	sched := sparcle.NewScheduler(net)
	sched.SetSpans(spans)
	if _, err := sched.Submit(sparcle.App{
		Name: "g", Graph: g, Pins: sparcle.Pins{s: src, k: snk},
		QoS: sparcle.QoS{Class: sparcle.GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := spans.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`"name":"assign.rank"`)) || !bytes.Contains(trace.Bytes(), []byte(`"gamma":`)) {
		t.Fatalf("span trace holds no ranked decision:\n%s", trace.String())
	}
	rep, err := sched.ApplyFluctuation(sparcle.ElementScale{sparcle.NCPElementOf(w1): 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 1 {
		t.Fatalf("violations = %v", rep.ViolatedGR)
	}
	if _, err := sched.Repair("g"); err != nil {
		t.Fatal(err)
	}
	_ = sparcle.LinkElementOf(net, 0)
}
