package expt

import (
	"fmt"
	"math/rand"

	"sparcle/internal/assign"
	"sparcle/internal/baselines"
	"sparcle/internal/stats"
	"sparcle/internal/workload"
)

// Fig8Row is one bar group of Fig. 8: the distribution of SPARCLE's rate
// relative to the exhaustive optimum for one topology and regime.
type Fig8Row struct {
	Topology string
	Regime   workload.Regime
	// Ratios holds SPARCLE rate / optimal rate per trial.
	Ratios        []float64
	P25, P50, P75 float64
}

// Fig8Result holds all cells.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 reproduces Fig. 8: a linear task graph with four CTs placed on
// linear and fully-connected networks across the three bottleneck cases;
// reported is the 25/50/75-percentile of SPARCLE's achieved rate over the
// optimal rate found by exhaustive search.
func Fig8(cfg Config) (*Fig8Result, error) {
	trials := cfg.trials(40)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Fig8Result{}
	topologies := []struct {
		name string
		topo workload.Topology
	}{
		{"linear", workload.TopoLine},
		{"fully-connected", workload.TopoMesh},
	}
	regimes := []workload.Regime{workload.NCPBottleneck, workload.Balanced, workload.LinkBottleneck}
	for _, topo := range topologies {
		for _, regime := range regimes {
			row := Fig8Row{Topology: topo.name, Regime: regime}
			for trial := 0; trial < trials; trial++ {
				inst, err := workload.Generate(workload.GenConfig{
					Shape:    workload.ShapeLinear,
					Topology: topo.topo,
					Regime:   regime,
					NumNCPs:  6,
					NumCTs:   4,
				}, rng)
				if err != nil {
					return nil, err
				}
				caps := inst.Net.BaseCapacities()
				opt := baselines.RateOf(baselines.Optimal{}, inst.Graph, inst.Pins, inst.Net, caps)
				if opt <= 0 {
					continue
				}
				got := baselines.RateOf(assign.Sparcle{}, inst.Graph, inst.Pins, inst.Net, caps)
				ratio := got / opt
				// The exhaustive reference fixes CT assignments but routes
				// TTs heuristically (joint routing is NP-hard), so SPARCLE
				// can occasionally edge it by a whisker; clamp those to 1.
				if ratio > 1.1 {
					return nil, fmt.Errorf("expt: fig8 %s/%s: SPARCLE ratio %v implausibly above optimal", topo.name, regime, ratio)
				}
				if ratio > 1 {
					ratio = 1
				}
				row.Ratios = append(row.Ratios, ratio)
			}
			row.P25 = stats.Percentile(row.Ratios, 25)
			row.P50 = stats.Percentile(row.Ratios, 50)
			row.P75 = stats.Percentile(row.Ratios, 75)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 8 — SPARCLE rate / optimal rate (linear task graph)",
		Headers: []string{"network", "case", "p25", "p50", "p75", "trials"},
		Notes:   []string{"paper shape: SPARCLE almost always finds the optimal rate (percentiles ~1.0)."},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Topology, row.Regime.String(), f3(row.P25), f3(row.P50), f3(row.P75),
			fmt.Sprintf("%d", len(row.Ratios)))
	}
	return t
}
