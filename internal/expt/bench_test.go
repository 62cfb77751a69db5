// Package expt_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (one benchmark per figure,
// reporting the headline numbers as custom metrics), micro-benchmarks of
// the core algorithms, and ablation benchmarks for the design choices
// documented in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./internal/expt/
package expt_test

import (
	"math/rand"
	"testing"

	"sparcle/internal/alloc"
	"sparcle/internal/assign"
	"sparcle/internal/avail"
	"sparcle/internal/baselines"
	"sparcle/internal/expt"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/simnet"
	"sparcle/internal/workload"
)

// benchCfg keeps the per-figure benchmarks fast while still exercising the
// full pipeline; cmd/sparcle-bench runs the full-size versions.
var benchCfg = expt.Config{Trials: 10, Seed: 1}

// BenchmarkFig6 regenerates the Table I/II testbed sweep (Fig. 6) and
// reports SPARCLE's gain over cloud-only processing at the lowest and
// highest field bandwidths.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		rates := map[string]map[float64]float64{}
		for _, c := range res.Cells {
			if rates[c.Algorithm] == nil {
				rates[c.Algorithm] = map[float64]float64{}
			}
			rates[c.Algorithm][c.FieldBWMbps] = c.Rate
		}
		b.ReportMetric(rates["SPARCLE"][0.5]/rates["Cloud"][0.5], "x-cloud@0.5Mbps")
		b.ReportMetric(rates["SPARCLE-1path"][22]/rates["Cloud"][22], "x-cloud@22Mbps")
		b.ReportMetric(rates["SPARCLE-1path"][10]/rates["Optimal"][10], "vs-optimal@10Mbps")
	}
}

// BenchmarkFig8 regenerates the SPARCLE-vs-optimal percentiles (Fig. 8)
// and reports the worst median across all cells.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig8(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := 1.0
		for _, row := range res.Rows {
			if row.P50 < worst {
				worst = row.P50
			}
		}
		b.ReportMetric(worst, "worst-median-ratio")
	}
}

// BenchmarkFig9 regenerates the energy-efficiency comparison (Fig. 9).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		means := map[string]float64{}
		for _, row := range res.Rows {
			if row.Regime == workload.Balanced {
				means[row.Algorithm] = row.Mean
			}
		}
		b.ReportMetric(means["SPARCLE"]/means["T-Storm"], "x-tstorm-balanced")
		b.ReportMetric(means["SPARCLE"]/means["Random"], "x-random-balanced")
	}
}

// BenchmarkFig10 regenerates both availability curves (Fig. 10).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := expt.Fig10a(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Rows) > 0 {
			b.ReportMetric(a.Rows[0].Availability, "avail-1path")
			b.ReportMetric(a.Rows[len(a.Rows)-1].Availability, "avail-final")
		}
		g, err := expt.Fig10b(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Rows) > 0 {
			b.ReportMetric(g.Rows[len(g.Rows)-1].Availability, "minrate-avail-final")
		}
	}
}

// BenchmarkFig11 regenerates the rate-distribution CDFs (Fig. 11) and
// reports SPARCLE's mean gain over GS in the link-bottleneck case.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.MeanOf(workload.LinkBottleneck, "SPARCLE")
		g, _ := res.MeanOf(workload.LinkBottleneck, "GS")
		b.ReportMetric(s/g, "x-gs-linkbottleneck")
		sn, _ := res.MeanOf(workload.NCPBottleneck, "SPARCLE")
		gn, _ := res.MeanOf(workload.NCPBottleneck, "GS")
		b.ReportMetric(sn/gn, "x-gs-ncpbottleneck")
	}
}

// BenchmarkFig12 regenerates the multi-resource comparison (Fig. 12).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig12(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.MeanOf(workload.MemoryBottleneck, "SPARCLE")
		g, _ := res.MeanOf(workload.MemoryBottleneck, "GS")
		v, _ := res.MeanOf(workload.MemoryBottleneck, "VNE")
		b.ReportMetric(s/g, "x-gs-membottleneck")
		b.ReportMetric(s/v, "x-vne-membottleneck")
	}
}

// BenchmarkFig13 regenerates the two-app utility comparison (Fig. 13).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig13(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var sparcle, worst float64
		worst = 1e18
		for _, row := range res.Rows {
			if row.Algorithm == "SPARCLE" {
				sparcle = row.Summary.Mean
			}
			if row.Summary.Mean < worst {
				worst = row.Summary.Mean
			}
		}
		b.ReportMetric(sparcle-worst, "utility-gap-to-worst")
	}
}

// BenchmarkFig14 regenerates the GR admission comparison (Fig. 14).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig14(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		means := map[string]float64{}
		for _, row := range res.Rows {
			means[row.Algorithm] = row.MeanRate
		}
		b.ReportMetric(means["SPARCLE"]/means["Random"], "x-random-admitted-rate")
		b.ReportMetric(means["SPARCLE"]/means["T-Storm"], "x-tstorm-admitted-rate")
	}
}

// --- micro-benchmarks of the core algorithms ---

func benchInstance(b *testing.B, shape workload.Shape, topo workload.Topology, n int) *workload.Instance {
	b.Helper()
	inst, err := workload.Generate(workload.GenConfig{
		Shape:    shape,
		Topology: topo,
		Regime:   workload.Balanced,
		NumNCPs:  n,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkAssignSparcle measures Algorithm 2 on a diamond graph over a
// 16-NCP mesh.
func BenchmarkAssignSparcle(b *testing.B) {
	inst := benchInstance(b, workload.ShapeDiamond, workload.TopoMesh, 16)
	caps := inst.Net.BaseCapacities()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (assign.Sparcle{}).Assign(inst.Graph, inst.Pins, inst.Net, caps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocSolve measures the proportional-fair solver with 24 flows
// on a 16-NCP star.
func BenchmarkAllocSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	inst := benchInstance(b, workload.ShapeLinear, workload.TopoStar, 16)
	caps := inst.Net.BaseCapacities()
	var flows []alloc.Flow
	for len(flows) < 24 {
		pins := workload.PinRandomEnds(inst.Graph, inst.Net, rng)
		p, err := (assign.Sparcle{}).Assign(inst.Graph, pins, inst.Net, caps)
		if err != nil {
			continue
		}
		flows = append(flows, alloc.Flow{Weight: 1 + rng.Float64(), Path: p})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := alloc.SolveStats(caps, flows, alloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnet measures the discrete-event simulator's event
// throughput on the face-detection testbed.
func BenchmarkSimnet(b *testing.B) {
	g, err := workload.FaceDetectionApp()
	if err != nil {
		b.Fatal(err)
	}
	net, err := workload.TestbedNetwork(10)
	if err != nil {
		b.Fatal(err)
	}
	pins, err := workload.TestbedPins(g, net)
	if err != nil {
		b.Fatal(err)
	}
	caps := net.BaseCapacities()
	p, err := (assign.Sparcle{}).Assign(g, pins, net, caps)
	if err != nil {
		b.Fatal(err)
	}
	rate := p.Rate(caps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := simnet.New(net)
		if err := sim.AddApp(p, rate*0.9); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(simnet.Config{Duration: 500, Warmup: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationFrontierNu compares the frontier restriction of ν_i
// (this repository's reading of eq. (2)) against the paper-literal "every
// placed reachable CT" on the Fig. 6 testbed, where the literal form
// demonstrably misses the optimal placement.
func BenchmarkAblationFrontierNu(b *testing.B) {
	g, err := workload.FaceDetectionApp()
	if err != nil {
		b.Fatal(err)
	}
	net, err := workload.TestbedNetwork(0.5)
	if err != nil {
		b.Fatal(err)
	}
	pins, err := workload.TestbedPins(g, net)
	if err != nil {
		b.Fatal(err)
	}
	caps := net.BaseCapacities()
	for i := 0; i < b.N; i++ {
		frontier := baselines.RateOf(assign.Sparcle{}, g, pins, net, caps)
		literal := baselines.RateOf(assign.Sparcle{LiteralNu: true}, g, pins, net, caps)
		b.ReportMetric(frontier, "frontier-rate")
		b.ReportMetric(literal, "literal-rate")
		b.ReportMetric(frontier/literal, "frontier-gain")
	}
}

// BenchmarkAblationGSHostChoice compares GS with SPARCLE's transport-aware
// host choice against the NCP-only variant across link-bottleneck
// instances, quantifying how much of the baseline's strength comes from
// the shared machinery.
func BenchmarkAblationGSHostChoice(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var full, ncpOnly float64
	const trials = 30
	for t := 0; t < trials; t++ {
		inst, err := workload.Generate(workload.GenConfig{
			Shape:    workload.ShapeDiamond,
			Topology: workload.TopoStar,
			Regime:   workload.LinkBottleneck,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		caps := inst.Net.BaseCapacities()
		full += baselines.RateOf(baselines.GreedySorted(), inst.Graph, inst.Pins, inst.Net, caps)
		ncpOnly += baselines.RateOf(baselines.GreedySortedNCPOnly(), inst.Graph, inst.Pins, inst.Net, caps)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(full/ncpOnly, "transportaware-gain")
	}
}

// BenchmarkAblationMultiPath quantifies the aggregate-rate gain of
// multi-path task assignment over the single best path on the testbed at
// 22 Mbps (the regime where Fig. 6 shows dispersed+cloud aggregation wins).
func BenchmarkAblationMultiPath(b *testing.B) {
	g, err := workload.FaceDetectionApp()
	if err != nil {
		b.Fatal(err)
	}
	net, err := workload.TestbedNetwork(22)
	if err != nil {
		b.Fatal(err)
	}
	pins, err := workload.TestbedPins(g, net)
	if err != nil {
		b.Fatal(err)
	}
	caps := net.BaseCapacities()
	for i := 0; i < b.N; i++ {
		paths, _, err := assign.MultiPath(assign.Sparcle{}, g, pins, net, caps, 3)
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, p := range paths {
			total += p.Rate
		}
		b.ReportMetric(total/paths[0].Rate, "multipath-gain")
		b.ReportMetric(float64(len(paths)), "paths")
	}
}

// BenchmarkAblationTieBreak verifies the hop-count tie-breaking in
// Algorithm 1 never hurts the rate, comparing total links used by routes.
func BenchmarkAblationTieBreak(b *testing.B) {
	inst := benchInstance(b, workload.ShapeDiamond, workload.TopoMesh, 10)
	caps := inst.Net.BaseCapacities()
	p, err := (assign.Sparcle{}).Assign(inst.Graph, inst.Pins, inst.Net, caps)
	if err != nil {
		b.Fatal(err)
	}
	links := 0
	for l := 0; l < inst.Net.NumLinks(); l++ {
		if p.LinkLoad(network.LinkID(l)) > 0 {
			links++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(links), "links-used")
		b.ReportMetric(p.Rate(caps), "rate")
	}
}

// BenchmarkAblationPathDiversity quantifies the diversity-biased
// multi-path extension: availability gained and rate sacrificed versus
// the paper's plain iteration, averaged over random failing networks.
func BenchmarkAblationPathDiversity(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	var availPlain, availDiv, ratePlain, rateDiv float64
	const trials = 25
	done := 0
	for trial := 0; trial < trials; trial++ {
		inst, err := workload.Generate(workload.GenConfig{
			Shape:        workload.ShapeLinear,
			Topology:     workload.TopoMesh,
			Regime:       workload.NCPBottleneck,
			NumNCPs:      6,
			LinkFailProb: 0.05,
			NCPFailProb:  0.02,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		caps := inst.Net.BaseCapacities()
		plain, _, err1 := assign.MultiPath(assign.Sparcle{}, inst.Graph, inst.Pins, inst.Net, caps, 2)
		diverse, _, err2 := assign.MultiPathDiverse(assign.Sparcle{}, inst.Graph, inst.Pins, inst.Net, caps, 2, 0.2)
		if err1 != nil || err2 != nil || len(plain) < 2 || len(diverse) < 2 {
			continue
		}
		done++
		availPlain += pathsAvailability(b, inst.Net, plain)
		availDiv += pathsAvailability(b, inst.Net, diverse)
		for _, p := range plain {
			ratePlain += p.Rate
		}
		for _, p := range diverse {
			rateDiv += p.Rate
		}
	}
	if done == 0 {
		b.Fatal("no usable trials")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(availDiv/availPlain, "availability-gain")
		b.ReportMetric(rateDiv/ratePlain, "rate-ratio")
	}
}

func pathsAvailability(b *testing.B, net *network.Network, paths []placement.Path) float64 {
	b.Helper()
	fp := avail.FailProbs{}
	var aps []avail.Path
	for _, p := range paths {
		elems := p.P.UsedElements()
		ints := make([]int, len(elems))
		for i, e := range elems {
			ints[i] = int(e)
			if pf := e.FailProb(net); pf > 0 {
				fp[int(e)] = pf
			}
		}
		aps = append(aps, avail.Path{Elements: ints, Rate: p.Rate})
	}
	a, err := avail.AtLeastOne(aps, fp)
	if err != nil {
		b.Fatal(err)
	}
	return a
}
