// Package expt is the experiment harness: one function per table and
// figure of the SPARCLE paper's evaluation (§V), each returning structured
// rows that cmd/sparcle-bench prints and bench_test.go regenerates. Every
// experiment is deterministic given Config.Seed.
//
// The per-experiment index (which paper figure each function reproduces,
// with workloads and expected shapes) lives in DESIGN.md; measured-vs-paper
// outcomes are recorded in EXPERIMENTS.md.
package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"sparcle/internal/baselines"
	"sparcle/internal/placement"
)

// Config controls an experiment run.
type Config struct {
	// Trials is the number of random instances per cell (experiments with
	// a fixed scenario ignore it). Zero selects each experiment's
	// default.
	Trials int
	// Seed drives all randomness.
	Seed int64
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

// Table is a printable result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carry the shape expectations from the paper for side-by-side
	// reading.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// paperComparisonSet returns the algorithms of the paper's simulation
// figures (SPARCLE, GS, GRand, Random, T-Storm, VNE); HEFT appears only in
// the Fig. 6 testbed experiment.
func paperComparisonSet(rng *rand.Rand) []placement.Algorithm {
	var algs []placement.Algorithm
	for _, alg := range baselines.All(rng) {
		if alg.Name() != "HEFT" {
			algs = append(algs, alg)
		}
	}
	return algs
}
