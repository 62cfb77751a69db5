package expt

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sparcle/internal/assign"
	"sparcle/internal/workload"
)

// ScalingRow is one problem size of the Theorem 2 complexity check.
type ScalingRow struct {
	NCPs, CTs int
	// MeanTime is the mean wall-clock time of one assignment.
	MeanTime time.Duration
}

// ScalingResult holds the runtime curve.
type ScalingResult struct {
	Rows []ScalingRow
}

// Scaling measures Algorithm 2's wall-clock time as the network and task
// graph grow together, checking Theorem 2's polynomial bound
// O(|N|^3 |C|^3) empirically: doubling the problem size must grow the
// runtime by a bounded polynomial factor (about 2^6 = 64x at the theorem's
// worst case; far less in practice because γ only scans frontier CTs).
func Scaling(cfg Config) (*ScalingResult, error) {
	trials := cfg.trials(5)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &ScalingResult{}
	for _, size := range []struct{ ncps, cts int }{
		{4, 2}, {8, 4}, {16, 8}, {32, 16},
	} {
		var total time.Duration
		count := 0
		for trial := 0; trial < trials; trial++ {
			inst, err := workload.Generate(workload.GenConfig{
				Shape:    workload.ShapeLinear,
				Topology: workload.TopoMesh,
				Regime:   workload.Balanced,
				NumNCPs:  size.ncps,
				NumCTs:   size.cts,
			}, rng)
			if err != nil {
				return nil, err
			}
			caps := inst.Net.BaseCapacities()
			start := time.Now()
			if _, err := (assign.Sparcle{}).Assign(inst.Graph, inst.Pins, inst.Net, caps); err != nil {
				return nil, err
			}
			total += time.Since(start)
			count++
		}
		res.Rows = append(res.Rows, ScalingRow{
			NCPs:     size.ncps,
			CTs:      size.cts,
			MeanTime: total / time.Duration(count),
		})
	}
	return res, nil
}

// Table renders the runtime curve with the growth factor between
// consecutive sizes.
func (r *ScalingResult) Table() *Table {
	t := &Table{
		Title:   "Extension — Algorithm 2 runtime vs problem size (Theorem 2: O(|N|^3 |C|^3))",
		Headers: []string{"NCPs", "CTs", "mean time", "growth"},
		Notes:   []string{"each row doubles both |N| and |C|; polynomial growth stays bounded (<= ~64x per doubling at the theoretical worst case)"},
	}
	for i, row := range r.Rows {
		growth := "-"
		if i > 0 && r.Rows[i-1].MeanTime > 0 {
			growth = fmt.Sprintf("%.1fx", float64(row.MeanTime)/float64(r.Rows[i-1].MeanTime))
		}
		t.AddRow(fmt.Sprintf("%d", row.NCPs), fmt.Sprintf("%d", row.CTs), row.MeanTime.String(), growth)
	}
	return t
}

// MaxGrowthFactor returns the largest runtime ratio between consecutive
// doublings, for tests.
func (r *ScalingResult) MaxGrowthFactor() float64 {
	maxGrowth := 0.0
	for i := 1; i < len(r.Rows); i++ {
		if prev := float64(r.Rows[i-1].MeanTime); prev > 0 {
			if g := float64(r.Rows[i].MeanTime) / prev; g > maxGrowth {
				maxGrowth = g
			}
		}
	}
	if maxGrowth == 0 {
		return math.NaN()
	}
	return maxGrowth
}
