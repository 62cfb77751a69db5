package expt

import (
	"fmt"

	"sparcle/internal/assign"
	"sparcle/internal/simnet"
	"sparcle/internal/workload"
)

// BackpressureRow compares emergent closed-loop throughput against the
// analytic bottleneck rate for one field bandwidth and window size.
type BackpressureRow struct {
	FieldBWMbps float64
	Window      int
	Analytic    float64
	Emergent    float64
}

// BackpressureResult holds the sweep.
type BackpressureResult struct {
	Rows []BackpressureRow
}

// Backpressure demonstrates the decentralized alternative the paper's
// related work points to: instead of computing the stable input rate up
// front (problem (1)), the source uses window flow control — emit the
// next data unit when one is delivered — and the bottleneck rate emerges
// on its own. The experiment runs SPARCLE's face-detection placements on
// the Fig. 4 testbed with increasing windows: small windows serialize the
// pipeline; once the window covers it, throughput matches the analysis.
func Backpressure(cfg Config) (*BackpressureResult, error) {
	g, err := workload.FaceDetectionApp()
	if err != nil {
		return nil, err
	}
	res := &BackpressureResult{}
	for _, bw := range []float64{0.5, 10} {
		net, err := workload.TestbedNetwork(bw)
		if err != nil {
			return nil, err
		}
		pins, err := workload.TestbedPins(g, net)
		if err != nil {
			return nil, err
		}
		caps := net.BaseCapacities()
		p, err := assign.Sparcle{}.Assign(g, pins, net, caps)
		if err != nil {
			return nil, err
		}
		analytic := p.Rate(caps)
		for _, window := range []int{1, 2, 4, 8, 16} {
			sim := simnet.New(net)
			if err := sim.AddAppClosedLoop(p.Clone(), window); err != nil {
				return nil, err
			}
			rep, err := sim.Run(simnet.Config{Duration: 4000, Warmup: 400})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, BackpressureRow{
				FieldBWMbps: bw,
				Window:      window,
				Analytic:    analytic,
				Emergent:    rep.Apps[0].Throughput,
			})
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *BackpressureResult) Table() *Table {
	t := &Table{
		Title:   "Extension — backpressure (window) flow control vs the analytic bottleneck rate",
		Headers: []string{"field BW (Mbps)", "window", "analytic rate", "emergent rate", "ratio"},
		Notes: []string{
			"the source is never told a rate: once the window covers the pipeline, throughput self-clocks to",
			"the §IV.A bottleneck — the decentralized behaviour the paper's related work calls complementary.",
		},
	}
	for _, row := range r.Rows {
		ratio := 0.0
		if row.Analytic > 0 {
			ratio = row.Emergent / row.Analytic
		}
		t.AddRow(fmt.Sprintf("%.1f", row.FieldBWMbps), fmt.Sprintf("%d", row.Window),
			f4(row.Analytic), f4(row.Emergent), f3(ratio))
	}
	return t
}
