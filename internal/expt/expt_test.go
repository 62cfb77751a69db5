package expt

import (
	"reflect"
	"strings"
	"testing"

	"sparcle/internal/workload"
)

// The experiment tests run with reduced trial counts and assert the
// paper's qualitative shapes: who wins, where crossovers fall, and that
// the tables render. EXPERIMENTS.md records the full-size numbers.

var testCfg = Config{Trials: 25, Seed: 1}

func TestFig6Shapes(t *testing.T) {
	res, err := Fig6(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(alg string, bw float64) float64 {
		for _, c := range res.Cells {
			if c.Algorithm == alg && c.FieldBWMbps == bw {
				return c.Rate
			}
		}
		t.Fatalf("missing cell %s@%v", alg, bw)
		return 0
	}
	// Headline claim: large dispersed-computing gain over the cloud at
	// limited field bandwidth (paper: ~9x at 0.5 Mbps).
	if gain := rate("SPARCLE", 0.5) / rate("Cloud", 0.5); gain < 5 {
		t.Fatalf("SPARCLE/Cloud at 0.5 Mbps = %v, want >= 5", gain)
	}
	// SPARCLE's single path tracks the exhaustive optimum everywhere.
	for _, bw := range []float64{0.5, 10, 22} {
		s, o := rate("SPARCLE-1path", bw), rate("Optimal", bw)
		if s < 0.95*o {
			t.Fatalf("SPARCLE-1path at %v Mbps = %v, optimal %v", bw, s, o)
		}
	}
	// At 10 Mbps the cloud placement is optimal and SPARCLE matches it.
	if s, c := rate("SPARCLE-1path", 10), rate("Cloud", 10); s < c*0.999 {
		t.Fatalf("at 10 Mbps SPARCLE-1path %v below cloud %v", s, c)
	}
	// Dispersed computing still wins at high field bandwidth (paper: +23%).
	if s, c := rate("SPARCLE-1path", 22), rate("Cloud", 22); s <= c {
		t.Fatalf("at 22 Mbps SPARCLE-1path %v not above cloud %v", s, c)
	}
	// Network-oblivious baselines collapse at 0.5 Mbps.
	for _, alg := range []string{"T-Storm", "VNE"} {
		if r := rate(alg, 0.5); r > 0.5*rate("SPARCLE", 0.5) {
			t.Fatalf("%s at 0.5 Mbps = %v, expected far below SPARCLE", alg, r)
		}
	}
	// The simulator corroborates the analytic rates within 5%.
	for _, c := range res.Cells {
		if c.Rate > 0 && (c.SimRate < 0.95*c.Rate || c.SimRate > 1.05*c.Rate) {
			t.Fatalf("%s@%v: sim %v vs analytic %v", c.Algorithm, c.FieldBWMbps, c.SimRate, c.Rate)
		}
	}
	mustRenderTable(t, res.Table(), "Fig. 6")
}

func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 topologies x 3 regimes)", len(res.Rows))
	}
	// The experiment is seeded and deterministic, so each row's median is
	// a gate on Algorithm 2's choices: the bound is the median measured
	// before the allocation-free widest-path searches, minus 0.01.
	minP50 := map[string]float64{
		"linear/NCP-bottleneck":           0.99,
		"linear/balanced":                 0.754,
		"linear/link-bottleneck":          0.99,
		"fully-connected/NCP-bottleneck":  0.99,
		"fully-connected/balanced":        0.843,
		"fully-connected/link-bottleneck": 0.99,
	}
	for _, row := range res.Rows {
		cell := row.Topology + "/" + row.Regime.String()
		if len(row.Ratios) == 0 {
			t.Fatalf("%s: no trials", cell)
		}
		if row.P75 > 1+1e-9 || row.P25 <= 0 {
			t.Fatalf("%s: percentiles out of range: %v %v", cell, row.P25, row.P75)
		}
		want, ok := minP50[cell]
		if !ok {
			t.Fatalf("%s: no median bound", cell)
		}
		if row.P50 < want {
			t.Fatalf("%s: median ratio %v, want >= %v", cell, row.P50, want)
		}
	}
	mustRenderTable(t, res.Table(), "Fig. 8")
}

func TestFig9Shapes(t *testing.T) {
	res, err := Fig9(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(regime workload.Regime, alg string) float64 {
		for _, row := range res.Rows {
			if row.Regime == regime && row.Algorithm == alg {
				return row.Mean
			}
		}
		t.Fatalf("missing %v/%s", regime, alg)
		return 0
	}
	// HEFT is excluded per the paper's comparison set.
	for _, row := range res.Rows {
		if row.Algorithm == "HEFT" {
			t.Fatal("HEFT must not appear in Fig. 9")
		}
	}
	// Balanced case: SPARCLE well above the network-oblivious baselines
	// (paper: +126%/+190%/+59% over Random/T-Storm/VNE).
	for _, alg := range []string{"Random", "T-Storm", "VNE"} {
		if gain := mean(workload.Balanced, "SPARCLE") / mean(workload.Balanced, alg); gain < 1.3 {
			t.Fatalf("balanced SPARCLE/%s = %v, want >= 1.3", alg, gain)
		}
	}
	// Link-bottleneck: co-location pays off massively vs Random.
	if gain := mean(workload.LinkBottleneck, "SPARCLE") / mean(workload.LinkBottleneck, "Random"); gain < 3 {
		t.Fatalf("link-bottleneck SPARCLE/Random = %v, want >= 3", gain)
	}
	mustRenderTable(t, res.Table(), "Fig. 9")
}

func TestFig10aShapes(t *testing.T) {
	res, err := Fig10a(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d, want >= 2", len(res.Rows))
	}
	if res.Rows[0].MeetsTarget {
		t.Fatal("one path should miss the availability target in the reported scenario")
	}
	if last := res.Rows[len(res.Rows)-1]; !last.MeetsTarget {
		t.Fatalf("final availability %v still below target", last.Availability)
	}
	// Availability and aggregate rate must be non-decreasing in paths.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Availability < res.Rows[i-1].Availability-1e-12 {
			t.Fatal("availability must not decrease with more paths")
		}
		if res.Rows[i].AggregateRate < res.Rows[i-1].AggregateRate {
			t.Fatal("aggregate rate must not decrease with more paths")
		}
	}
	mustRenderTable(t, res.Table(), "Fig. 10(a)")
}

func TestFig10bShapes(t *testing.T) {
	res, err := Fig10b(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The min rate exceeds the first path's rate, so one path can never
	// satisfy it.
	if res.Rows[0].Availability != 0 {
		t.Fatalf("one-path min-rate availability = %v, want 0", res.Rows[0].Availability)
	}
	if last := res.Rows[len(res.Rows)-1]; !last.MeetsTarget {
		t.Fatalf("final min-rate availability %v below target %v", last.Availability, res.Requested)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Availability < res.Rows[i-1].Availability-1e-12 {
			t.Fatal("min-rate availability must not decrease with more paths")
		}
	}
	mustRenderTable(t, res.Table(), "Fig. 10(b)")
}

func TestFig11Shapes(t *testing.T) {
	res, err := Fig11(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(regime workload.Regime, alg string) float64 {
		m, ok := res.MeanOf(regime, alg)
		if !ok {
			t.Fatalf("missing %v/%s", regime, alg)
		}
		return m
	}
	// (a) NCP-bottleneck: SPARCLE and GS coincide.
	s, g := meanOf(workload.NCPBottleneck, "SPARCLE"), meanOf(workload.NCPBottleneck, "GS")
	if s < 0.97*g || s > 1.03*g {
		t.Fatalf("NCP-bottleneck SPARCLE %v vs GS %v, want ~equal", s, g)
	}
	// (b) link-bottleneck: SPARCLE above GS (paper ~+30%) and far above
	// the network-oblivious baselines.
	s, g = meanOf(workload.LinkBottleneck, "SPARCLE"), meanOf(workload.LinkBottleneck, "GS")
	if s < 1.05*g {
		t.Fatalf("link-bottleneck SPARCLE %v vs GS %v, want clearly above", s, g)
	}
	for _, alg := range []string{"Random", "T-Storm", "VNE"} {
		if s < 2*meanOf(workload.LinkBottleneck, alg) {
			t.Fatalf("link-bottleneck SPARCLE %v not >> %s", s, alg)
		}
	}
	// (c) balanced: SPARCLE above Random and T-Storm (paper +82%/+69%).
	s = meanOf(workload.Balanced, "SPARCLE")
	for _, alg := range []string{"Random", "T-Storm"} {
		if s < 1.2*meanOf(workload.Balanced, alg) {
			t.Fatalf("balanced SPARCLE %v not above %s", s, alg)
		}
	}
	if _, ok := res.MeanOf(workload.Balanced, "HEFT"); ok {
		t.Fatal("HEFT must not appear in Fig. 11")
	}
	mustRenderTable(t, res.Table(), "Fig. 11")
}

func TestFig12Shapes(t *testing.T) {
	res, err := Fig12(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(regime workload.Regime, alg string) float64 {
		m, ok := res.MeanOf(regime, alg)
		if !ok {
			t.Fatalf("missing %v/%s", regime, alg)
		}
		return m
	}
	// With two resource types SPARCLE stays ahead of GS and VNE (paper:
	// both "drastically degraded").
	s := meanOf(workload.MemoryBottleneck, "SPARCLE")
	if s <= meanOf(workload.MemoryBottleneck, "GS") {
		t.Fatal("memory-bottleneck: SPARCLE must beat GS")
	}
	if s <= meanOf(workload.MemoryBottleneck, "VNE") {
		t.Fatal("memory-bottleneck: SPARCLE must beat VNE")
	}
	mustRenderTable(t, res.Table(), "Fig. 12")
}

func TestFig13Shapes(t *testing.T) {
	res, err := Fig13(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]float64{}
	for _, row := range res.Rows {
		means[row.Algorithm] = row.Summary.Mean
		if row.Summary.N+row.Rejections != testCfg.Trials {
			t.Fatalf("%s: %d admitted + %d rejected != %d trials",
				row.Algorithm, row.Summary.N, row.Rejections, testCfg.Trials)
		}
	}
	// SPARCLE's utility is well above the network-oblivious baselines.
	for _, alg := range []string{"Random", "T-Storm", "VNE"} {
		if means["SPARCLE"] <= means[alg] {
			t.Fatalf("SPARCLE utility %v not above %s %v", means["SPARCLE"], alg, means[alg])
		}
	}
	mustRenderTable(t, res.Table(), "Fig. 13")
}

func TestFig14Shapes(t *testing.T) {
	res, err := Fig14(Config{Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]float64{}
	for _, row := range res.Rows {
		means[row.Algorithm] = row.MeanRate
		if len(row.TotalRates) != 10 {
			t.Fatalf("%s: %d trials", row.Algorithm, len(row.TotalRates))
		}
		for i, admitted := range row.Admitted {
			if admitted > float64(res.Submitted) {
				t.Fatalf("%s trial %d: admitted %v > submitted %d", row.Algorithm, i, admitted, res.Submitted)
			}
		}
	}
	// SPARCLE admits considerably more GR work than the network-oblivious
	// baselines.
	for _, alg := range []string{"Random", "T-Storm", "VNE"} {
		if means["SPARCLE"] <= 1.2*means[alg] {
			t.Fatalf("SPARCLE admitted rate %v not well above %s %v", means["SPARCLE"], alg, means[alg])
		}
	}
	mustRenderTable(t, res.Table(), "Fig. 14")
}

func TestEnergyEfficiency(t *testing.T) {
	// Direct unit test of the energy model on a hand-built placement.
	inst, err := workload.Generate(workload.GenConfig{
		Shape: workload.ShapeLinear, Topology: workload.TopoLine, Regime: workload.Balanced,
	}, newRand(1))
	if err != nil {
		t.Fatal(err)
	}
	caps := inst.Net.BaseCapacities()
	p, err := sparcleAssign(inst)
	if err != nil {
		t.Fatal(err)
	}
	rate := p.Rate(caps)
	eff := EnergyEfficiency(p, caps, rate)
	if eff <= 0 {
		t.Fatalf("efficiency = %v", eff)
	}
	// Efficiency is rate-independent for this linear power model: power
	// scales with rate, so units/joule stay constant.
	if eff2 := EnergyEfficiency(p, caps, rate/2); !approx(eff, eff2, 1e-9) {
		t.Fatalf("efficiency changed with rate: %v vs %v", eff, eff2)
	}
	if EnergyEfficiency(p, caps, 0) != 0 {
		t.Fatal("zero rate must have zero efficiency")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("x", "y")
	out := tbl.String()
	for _, want := range []string{"== demo ==", "a  bb", "x  y", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output %q missing %q", out, want)
		}
	}
}

func mustRenderTable(t *testing.T, tbl *Table, title string) {
	t.Helper()
	out := tbl.String()
	if !strings.Contains(out, title) {
		t.Fatalf("table missing title %q:\n%s", title, out)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("table %q has no rows", title)
	}
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+a)
}

func TestFailureReplayMatchesAnalytic(t *testing.T) {
	res, err := FailureReplay(Config{Trials: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no trials produced")
	}
	for _, row := range res.Rows {
		if diff := row.Analytic - row.Empirical; diff > 0.05 || diff < -0.05 {
			t.Fatalf("trial %d: analytic %v vs replayed %v", row.Trial, row.Analytic, row.Empirical)
		}
	}
	if res.MeanAbsErr > 0.03 {
		t.Fatalf("mean abs error %v too large", res.MeanAbsErr)
	}
	mustRenderTable(t, res.Table(), "availability")
}

// TestFailureReplayIsReproducible: a seed fixes every replayed outage,
// so two runs agree on every empirical availability.
func TestFailureReplayIsReproducible(t *testing.T) {
	a, err := FailureReplay(Config{Trials: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FailureReplay(Config{Trials: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different replays:\n%+v\n%+v", a, b)
	}
}

func TestLatencyCurve(t *testing.T) {
	res, err := Latency(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck <= 0 || len(res.Rows) < 3 {
		t.Fatalf("result incomplete: %+v", res)
	}
	// Latency grows with load among the stable points (load < 1), and the
	// overloaded point saturates at the bottleneck rate.
	var prev float64
	for _, row := range res.Rows {
		if row.Load >= 1 {
			if row.Throughput > res.Bottleneck*1.05 {
				t.Fatalf("overloaded throughput %v exceeds bottleneck %v", row.Throughput, res.Bottleneck)
			}
			continue
		}
		if row.MeanLatency < prev*0.8 {
			t.Fatalf("latency dropped sharply with load: %v after %v", row.MeanLatency, prev)
		}
		prev = row.MeanLatency
		want := res.Bottleneck * row.Load
		if row.Throughput < want*0.95 || row.Throughput > want*1.05 {
			t.Fatalf("load %v: throughput %v, want ~%v", row.Load, row.Throughput, want)
		}
	}
	mustRenderTable(t, res.Table(), "latency")
}

func TestScalingStaysPolynomial(t *testing.T) {
	res, err := Scaling(Config{Trials: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Theorem 2's worst case allows 64x per doubling of |N| and |C|;
	// anything wildly beyond that indicates super-polynomial behaviour.
	if g := res.MaxGrowthFactor(); g > 100 {
		t.Fatalf("growth factor %v exceeds polynomial bound", g)
	}
	mustRenderTable(t, res.Table(), "Theorem 2")
}

func TestTables(t *testing.T) {
	t1, err := Table1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRenderTable(t, t1.Table(), "Table I")
	t2, err := Table2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRenderTable(t, t2.Table(), "Table II")
	if !strings.Contains(t2.Table().String(), "9880") {
		t.Fatal("Table II missing resize requirement")
	}
}

func TestOrderFairness(t *testing.T) {
	res, err := OrderFairness(Config{Trials: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var withPred, without FairnessRow
	for _, row := range res.Rows {
		switch row.Mode {
		case "with eq. (6) prediction":
			withPred = row
		case "without prediction":
			without = row
		}
	}
	// eq. (6)'s headline effect: prediction never rejects an arrival on
	// these balanced instances, the naive residual mode does.
	if withPred.Rejections != 0 {
		t.Fatalf("prediction mode rejected %d arrivals", withPred.Rejections)
	}
	if without.Rejections == 0 {
		t.Fatal("no-prediction mode should reject some arrivals")
	}
	if len(withPred.Spreads) != 30 {
		t.Fatalf("prediction mode admitted %d/30 trial pairs", len(withPred.Spreads))
	}
	mustRenderTable(t, res.Table(), "arrival-order")
}

func TestMeanSpreadLookup(t *testing.T) {
	res := &FairnessResult{Rows: []FairnessRow{{Mode: "x", Mean: 0.5}}}
	if m, ok := res.MeanSpread("x"); !ok || m != 0.5 {
		t.Fatalf("MeanSpread = %v %v", m, ok)
	}
	if _, ok := res.MeanSpread("nope"); ok {
		t.Fatal("unknown mode found")
	}
}

// TestFig6GoldenNumbers pins the fully deterministic Fig. 6 rates as a
// regression anchor: these are the values EXPERIMENTS.md reports, and any
// change to the assignment or routing algorithms that moves them deserves
// scrutiny.
func TestFig6GoldenNumbers(t *testing.T) {
	res, err := Fig6(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[float64]float64{
		"SPARCLE-1path": {0.5: 0.3036, 10: 0.4018, 22: 0.5364},
		"Optimal":       {0.5: 0.3036, 10: 0.4018, 22: 0.5364},
		"Cloud":         {0.5: 0.0201, 10: 0.4018, 22: 0.4583},
		"T-Storm":       {0.5: 0.0202, 10: 0.2344, 22: 0.2344},
	}
	for _, c := range res.Cells {
		if bwWant, ok := want[c.Algorithm]; ok {
			if w, ok := bwWant[c.FieldBWMbps]; ok {
				if c.Rate < w-0.0002 || c.Rate > w+0.0002 {
					t.Errorf("%s@%v: rate %.4f, golden %.4f", c.Algorithm, c.FieldBWMbps, c.Rate, w)
				}
			}
		}
	}
}

func TestBackpressureConverges(t *testing.T) {
	res, err := Backpressure(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		ratio := row.Emergent / row.Analytic
		if row.Window >= 8 {
			if ratio < 0.95 || ratio > 1.05 {
				t.Fatalf("window %d at %v Mbps: ratio %v, want ~1", row.Window, row.FieldBWMbps, ratio)
			}
		}
		if row.Window == 1 && ratio > 0.6 {
			t.Fatalf("window 1 at %v Mbps: ratio %v, expected serialization well below 1", row.FieldBWMbps, ratio)
		}
	}
	mustRenderTable(t, res.Table(), "backpressure")
}

func TestChaosShapes(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 1}
	res, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 MTTRs x 2 classes)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Apps == 0 || row.Bound <= 0 || row.Bound > 1 {
			t.Fatalf("degenerate row %+v", row)
		}
		switch row.Class {
		case "guaranteed-rate":
			// The self-healing loop must deliver at least the analytical
			// admission bound (it typically beats it by a wide margin) and
			// never do worse than freezing the placement.
			if row.Healed < row.Bound-0.02 {
				t.Fatalf("mttr=%v: self-healed %v below bound %v", row.MTTR, row.Healed, row.Bound)
			}
			if row.Healed < row.Static-1e-9 {
				t.Fatalf("mttr=%v: self-healed %v below static replay %v", row.MTTR, row.Healed, row.Static)
			}
			if row.Repairs == 0 {
				t.Fatalf("mttr=%v: no repairs despite injected failures", row.MTTR)
			}
		case "best-effort":
			// BE apps are never repaired: the measured timelines coincide.
			if row.Repairs != 0 || !approx(row.Healed, row.Static, 1e-9) {
				t.Fatalf("BE row %+v: expected untouched static timeline", row)
			}
		default:
			t.Fatalf("unknown class %q", row.Class)
		}
	}
	if res.Fluctuations == 0 || res.RepairAttempts == 0 {
		t.Fatal("no control-plane activity recorded")
	}
	// Fixed-seed reproducibility of the full report.
	again, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table().String() != again.Table().String() {
		t.Fatal("chaos report is not reproducible at a fixed seed")
	}
	mustRenderTable(t, res.Table(), "Chaos")
}
