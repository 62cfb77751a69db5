package expt

import (
	"errors"
	"fmt"
	"math/rand"

	"sparcle/internal/core"
	"sparcle/internal/stats"
	"sparcle/internal/workload"
)

// Fig14Row is one algorithm's GR admission outcome.
type Fig14Row struct {
	Algorithm string
	// TotalRates holds, per trial, the sum of reserved rates across all
	// admitted GR applications.
	TotalRates []float64
	// Admitted holds, per trial, how many of the submitted apps were
	// admitted.
	Admitted  []float64
	MeanRate  float64
	MeanCount float64
}

// Fig14Result holds the comparison.
type Fig14Result struct {
	Submitted int
	Rows      []Fig14Row
}

// Fig14 reproduces Fig. 14: a sequence of Guaranteed-Rate applications
// with mixed diamond and linear task graphs and random requested rates is
// submitted to star networks (links failing with 2% probability, requested
// min-rate availability 0.9); reported is the total reserved processing
// rate of the admitted applications per task assignment algorithm.
func Fig14(cfg Config) (*Fig14Result, error) {
	trials := cfg.trials(30)
	const appsPerTrial = 6
	rng := rand.New(rand.NewSource(cfg.Seed))
	samplesRate := map[string][]float64{}
	samplesCount := map[string][]float64{}
	var names []string

	for trial := 0; trial < trials; trial++ {
		// One shared network per trial; each algorithm gets its own
		// scheduler over it.
		netInst, err := workload.Generate(workload.GenConfig{
			Shape:        workload.ShapeLinear,
			Topology:     workload.TopoStar,
			Regime:       workload.Balanced,
			NumNCPs:      8,
			LinkFailProb: fig10LinkFailProb,
		}, rng)
		if err != nil {
			return nil, err
		}
		// The application sequence (shared across algorithms for a fair
		// comparison).
		var apps []core.App
		for i := 0; i < appsPerTrial; i++ {
			shape := workload.ShapeLinear
			if i%2 == 1 {
				shape = workload.ShapeDiamond
			}
			appInst, err := workload.Generate(workload.GenConfig{
				Shape:    shape,
				Topology: workload.TopoStar,
				Regime:   workload.Balanced,
				NumNCPs:  8,
			}, rng)
			if err != nil {
				return nil, err
			}
			apps = append(apps, core.App{
				Name:  fmt.Sprintf("gr%d", i),
				Graph: appInst.Graph,
				Pins:  workload.PinRandomEnds(appInst.Graph, netInst.Net, rng),
				QoS: core.QoS{
					Class:               core.GuaranteedRate,
					MinRate:             0.2 + rng.Float64()*0.8,
					MinRateAvailability: 0.9,
					MaxPaths:            3,
				},
			})
		}

		algs := paperComparisonSet(rng)
		if len(names) == 0 {
			for _, alg := range algs {
				names = append(names, alg.Name())
			}
		}
		for _, alg := range algs {
			s := core.New(netInst.Net, core.WithAlgorithm(alg))
			admitted := 0
			for _, app := range apps {
				if _, err := s.Submit(app); err == nil {
					admitted++
				} else if !errors.Is(err, core.ErrRejected) {
					return nil, fmt.Errorf("expt: fig14 %s: %w", alg.Name(), err)
				}
			}
			samplesRate[alg.Name()] = append(samplesRate[alg.Name()], s.TotalGRRate())
			samplesCount[alg.Name()] = append(samplesCount[alg.Name()], float64(admitted))
		}
	}

	res := &Fig14Result{Submitted: appsPerTrial}
	for _, name := range names {
		res.Rows = append(res.Rows, Fig14Row{
			Algorithm:  name,
			TotalRates: samplesRate[name],
			Admitted:   samplesCount[name],
			MeanRate:   stats.Mean(samplesRate[name]),
			MeanCount:  stats.Mean(samplesCount[name]),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Fig14Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 14 — total reserved rate of admitted GR apps (%d submitted per trial)", r.Submitted),
		Headers: []string{"algorithm", "mean total rate", "mean admitted", "trials"},
		Notes:   []string{"paper shape: SPARCLE admits considerably more guaranteed-rate work than every baseline."},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Algorithm, f4(row.MeanRate), f3(row.MeanCount), fmt.Sprintf("%d", len(row.TotalRates)))
	}
	return t
}
