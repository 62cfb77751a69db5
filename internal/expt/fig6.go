package expt

import (
	"fmt"

	"sparcle/internal/assign"
	"sparcle/internal/baselines"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/simnet"
	"sparcle/internal/workload"
)

// Fig6Cell is one bar of Fig. 6: an algorithm's face-detection processing
// rate at one field bandwidth.
type Fig6Cell struct {
	FieldBWMbps float64
	Algorithm   string
	// Rate is the analytic bottleneck processing rate (images/second).
	Rate float64
	// SimRate is the throughput measured by the discrete-event simulator
	// driving the placement at its analytic rate (images/second).
	SimRate float64
}

// Fig6Result holds the full sweep.
type Fig6Result struct {
	Cells []Fig6Cell
}

// fig6Bandwidths is the Fig. 6 x-axis.
var fig6Bandwidths = []float64{0.5, 10, 22}

// Fig6 reproduces the testbed experiment of §V.A (Fig. 6): the face
// detection application (Table II) on the cloud+field network (Table I,
// Fig. 4), sweeping the field bandwidth. SPARCLE aggregates its task
// assignment paths (it may combine field and cloud resources); HEFT,
// T-Storm and VNE produce one placement each; Cloud forces all processing
// into the cloud; Optimal is the exhaustive single-path search.
func Fig6(cfg Config) (*Fig6Result, error) {
	g, err := workload.FaceDetectionApp()
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	for _, bw := range fig6Bandwidths {
		net, err := workload.TestbedNetwork(bw)
		if err != nil {
			return nil, err
		}
		pins, err := workload.TestbedPins(g, net)
		if err != nil {
			return nil, err
		}
		cloud, err := workload.CloudNCP(net)
		if err != nil {
			return nil, err
		}
		caps := net.BaseCapacities()

		// SPARCLE with aggregated multi-path placement, plus its first
		// path alone for a like-for-like comparison with the single-path
		// baselines.
		paths, _, err := assign.MultiPath(assign.Sparcle{}, g, pins, net, caps, 3)
		if err != nil {
			return nil, fmt.Errorf("expt: fig6 SPARCLE at %v Mbps: %w", bw, err)
		}
		total := 0.0
		for _, p := range paths {
			total += p.Rate
		}
		sim, err := simulatePaths(net, paths)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, Fig6Cell{FieldBWMbps: bw, Algorithm: "SPARCLE", Rate: total, SimRate: sim})
		sim1, err := simulatePaths(net, paths[:1])
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, Fig6Cell{FieldBWMbps: bw, Algorithm: "SPARCLE-1path", Rate: paths[0].Rate, SimRate: sim1})

		singles := []placement.Algorithm{
			baselines.HEFT{},
			baselines.TStorm{},
			baselines.VNE{},
			baselines.Cloud{Node: cloud},
			baselines.Optimal{},
		}
		for _, alg := range singles {
			p, err := alg.Assign(g, pins, net, caps)
			cell := Fig6Cell{FieldBWMbps: bw, Algorithm: alg.Name()}
			if err == nil {
				cell.Rate = p.Rate(caps)
				cell.SimRate, err = simulatePaths(net, []placement.Path{{P: p, Rate: cell.Rate}})
				if err != nil {
					return nil, err
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// simulatePaths drives each path at its analytic rate on a shared
// simulated network and returns the aggregate measured throughput.
func simulatePaths(net *network.Network, paths []placement.Path) (float64, error) {
	sim := simnet.New(net)
	any := false
	for _, p := range paths {
		if p.Rate <= 0 {
			continue
		}
		if err := sim.AddApp(p.P, p.Rate); err != nil {
			return 0, err
		}
		any = true
	}
	if !any {
		return 0, nil
	}
	rep, err := sim.Run(simnet.Config{Duration: 4000, Warmup: 400})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, a := range rep.Apps {
		total += a.Throughput
	}
	return total, nil
}

// Table renders the result.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 6 — face detection processing rate vs field bandwidth (images/s)",
		Headers: []string{"field BW (Mbps)", "algorithm", "rate", "sim rate"},
		Notes: []string{
			"paper shape: ~9x over Cloud at 0.5 Mbps; SPARCLE tracks Optimal; Cloud competitive at 10 Mbps;",
			"dispersed computing still ahead at 22 Mbps; SPARCLE >> HEFT/T-Storm/VNE when field BW is limited.",
		},
	}
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%.1f", c.FieldBWMbps), c.Algorithm, f4(c.Rate), f4(c.SimRate))
	}
	return t
}
