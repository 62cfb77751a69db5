package expt

import (
	"errors"
	"fmt"
	"math/rand"

	"sparcle/internal/chaos"
	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/workload"
)

// ChaosRow aggregates one (MTTR, QoS class) cell of the chaos experiment.
type ChaosRow struct {
	// MTTR is the mean time to repair of the injected failures, seconds.
	MTTR float64
	// Class is the QoS class the row aggregates.
	Class string
	// Apps counts the admitted applications across trials.
	Apps int
	// Bound is the mean analytical availability bound at admission.
	Bound float64
	// Static is the mean availability a fixed placement would have
	// delivered over the trace with no remediation.
	Static float64
	// Healed is the mean availability the self-healing control loop
	// delivered over the same trace.
	Healed float64
	// Repairs / GiveUps count remediation activity across trials.
	Repairs, GiveUps int
	// DegradedSec is the total time spent in the degraded state.
	DegradedSec float64
}

// ChaosResult holds the chaos sweep.
type ChaosResult struct {
	Rows []ChaosRow
	// Fluctuations and RepairAttempts count control-plane activity across
	// the whole sweep.
	Fluctuations, RepairAttempts int
}

// Chaos closes the availability loop end to end: admit a mixed GR/BE
// population on a failing mesh, draw a calibrated failure trace from the
// elements' failure probabilities, replay it against the scheduler with
// the self-healing driver, and compare three availabilities per class —
// the analytical admission bound, the static (no-repair) timeline, and
// the self-healed timeline. Sweeping MTTR at fixed failure probability
// varies the failure granularity: many short outages versus few long
// ones, same stationary unavailability.
func Chaos(cfg Config) (*ChaosResult, error) {
	trials := cfg.trials(3)
	const (
		horizon  = 2000.0
		pop      = 12
		ncpFail  = 0.01
		linkFail = 0.02
	)
	res := &ChaosResult{}
	for _, mttr := range []float64{5, 20} {
		type agg struct {
			apps              int
			bound, stat, heal float64
			repairs, giveUps  int
			degraded          float64
		}
		byClass := map[string]*agg{}
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)))
			inst, err := workload.Generate(workload.GenConfig{
				Shape:        workload.ShapeLinear,
				Topology:     workload.TopoMesh,
				Regime:       workload.Balanced,
				NumNCPs:      12,
				NCPFailProb:  ncpFail,
				LinkFailProb: linkFail,
			}, rng)
			if err != nil {
				return nil, err
			}
			s := core.New(inst.Net)
			if err := admitPopulation(s, inst.Net, rng, pop); err != nil {
				return nil, fmt.Errorf("chaos mttr=%v trial %d: %w", mttr, trial, err)
			}
			apps := append(s.GRApps(), s.BEApps()...)

			tr, err := chaos.Generate(inst.Net, chaos.TraceConfig{
				Horizon: horizon, Seed: cfg.Seed + int64(trial), MTTR: mttr,
			})
			if err != nil {
				return nil, err
			}
			static := chaos.AnalyticTimeline(apps, tr)
			staticByName := map[string]float64{}
			for _, m := range static {
				staticByName[m.Name] = m.Delivered
			}

			d := chaos.NewDriver(s, chaos.Policy{Seed: cfg.Seed + 1})
			run, err := d.Run(tr)
			if err != nil {
				return nil, fmt.Errorf("chaos mttr=%v trial %d: %w", mttr, trial, err)
			}
			res.Fluctuations += run.Fluctuations
			res.RepairAttempts += run.RepairAttempts
			for _, out := range run.Apps {
				a := byClass[out.Class]
				if a == nil {
					a = &agg{}
					byClass[out.Class] = a
				}
				a.apps++
				a.bound += out.AnalyticalBound
				a.stat += staticByName[out.Name]
				a.heal += out.Delivered
				a.repairs += out.Repairs
				a.giveUps += out.GiveUps
				a.degraded += out.DegradedSeconds
			}
		}
		for _, class := range []string{core.GuaranteedRate.String(), core.BestEffort.String()} {
			a := byClass[class]
			if a == nil || a.apps == 0 {
				continue
			}
			n := float64(a.apps)
			res.Rows = append(res.Rows, ChaosRow{
				MTTR: mttr, Class: class, Apps: a.apps,
				Bound: a.bound / n, Static: a.stat / n, Healed: a.heal / n,
				Repairs: a.repairs, GiveUps: a.giveUps, DegradedSec: a.degraded,
			})
		}
	}
	return res, nil
}

// admitPopulation fills the scheduler with a steady 3 BE : 1 GR mix.
func admitPopulation(s *core.Scheduler, net *network.Network, rng *rand.Rand, target int) error {
	var templates []core.App
	for i := 0; i < 8; i++ {
		shape := workload.ShapeLinear
		if i%2 == 0 {
			shape = workload.ShapeDiamond
		}
		ti, err := workload.Generate(workload.GenConfig{
			Shape:    shape,
			Topology: workload.TopoMesh,
			Regime:   workload.Balanced,
			NumNCPs:  12,
		}, rng)
		if err != nil {
			return err
		}
		app := core.App{Graph: ti.Graph, Pins: workload.PinRandomEnds(ti.Graph, net, rng)}
		if i%4 == 3 {
			app.QoS = core.QoS{Class: core.GuaranteedRate, MinRate: 0.01, MinRateAvailability: 0.5, MaxPaths: 2}
		} else {
			app.QoS = core.QoS{Class: core.BestEffort, Priority: 0.5 + rng.Float64()*2, MaxPaths: 2}
		}
		templates = append(templates, app)
	}
	admitted, seq := 0, 0
	for admitted < target {
		app := templates[seq%len(templates)]
		app.Name = fmt.Sprintf("app-%d", seq)
		seq++
		if _, err := s.Submit(app); err != nil {
			if errors.Is(err, core.ErrRejected) {
				if seq > 8*target {
					return fmt.Errorf("could not admit %d apps (stuck at %d)", target, admitted)
				}
				continue
			}
			return err
		}
		admitted++
	}
	return nil
}

// Table renders the result.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title:   "Chaos — measured vs analytical availability under failure-trace replay",
		Headers: []string{"mttr", "class", "apps", "bound", "static", "self-healed", "repairs", "give-ups", "degraded s"},
		Notes: []string{
			"bound: analytical availability at admission; static: trace replayed against a frozen placement; self-healed: with the repair loop",
			"self-healing must hold delivered availability at or above the bound; the static replay may fall below it once failures strand a placement",
			fmt.Sprintf("%d fluctuations applied, %d repair attempts across the sweep", r.Fluctuations, r.RepairAttempts),
		},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%g", row.MTTR), row.Class, fmt.Sprintf("%d", row.Apps),
			f4(row.Bound), f4(row.Static), f4(row.Healed),
			fmt.Sprintf("%d", row.Repairs), fmt.Sprintf("%d", row.GiveUps), fmt.Sprintf("%.1f", row.DegradedSec))
	}
	return t
}
