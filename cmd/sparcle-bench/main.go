// Command sparcle-bench regenerates every table and figure of the SPARCLE
// paper's evaluation (§V) and prints them as aligned text tables, with the
// paper's expected shapes attached as notes.
//
// Usage:
//
//	sparcle-bench [-experiment all|fig6|fig8|fig9|fig10a|fig10b|fig11|fig12|fig13|fig14] [-trials N] [-seed S] [-cells N]
//
// Independent experiment cells run concurrently across GOMAXPROCS
// workers with an ordered reduction, so the printed output is
// byte-identical to a serial run; -cells bounds the concurrency
// (-cells 1 forces serial).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"sparcle/internal/expt"
)

type tabler interface{ Table() *expt.Table }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sparcle-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sparcle-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which experiment to run (all, table1, table2, fig6, fig8, fig9, fig10a, fig10b, fig11, fig12, fig13, fig14, failure, latency, scaling, fairness, backpressure, chaos)")
	trials := fs.Int("trials", 0, "trials per cell (0 = experiment default)")
	seed := fs.Int64("seed", 1, "random seed")
	asJSON := fs.Bool("json", false, "emit raw experiment results as JSON instead of text tables")
	cells := fs.Int("cells", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial); output order is unchanged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := expt.Config{Trials: *trials, Seed: *seed}

	experiments := []struct {
		name string
		run  func(expt.Config) (tabler, error)
	}{
		{"table1", func(c expt.Config) (tabler, error) { return expt.Table1(c) }},
		{"table2", func(c expt.Config) (tabler, error) { return expt.Table2(c) }},
		{"fig6", func(c expt.Config) (tabler, error) { return expt.Fig6(c) }},
		{"fig8", func(c expt.Config) (tabler, error) { return expt.Fig8(c) }},
		{"fig9", func(c expt.Config) (tabler, error) { return expt.Fig9(c) }},
		{"fig10a", func(c expt.Config) (tabler, error) { return expt.Fig10a(c) }},
		{"fig10b", func(c expt.Config) (tabler, error) { return expt.Fig10b(c) }},
		{"fig11", func(c expt.Config) (tabler, error) { return expt.Fig11(c) }},
		{"fig12", func(c expt.Config) (tabler, error) { return expt.Fig12(c) }},
		{"fig13", func(c expt.Config) (tabler, error) { return expt.Fig13(c) }},
		{"fig14", func(c expt.Config) (tabler, error) { return expt.Fig14(c) }},
		// Extensions beyond the paper's figures.
		{"failure", func(c expt.Config) (tabler, error) { return expt.FailureReplay(c) }},
		{"latency", func(c expt.Config) (tabler, error) { return expt.Latency(c) }},
		{"scaling", func(c expt.Config) (tabler, error) { return expt.Scaling(c) }},
		{"fairness", func(c expt.Config) (tabler, error) { return expt.OrderFairness(c) }},
		{"backpressure", func(c expt.Config) (tabler, error) { return expt.Backpressure(c) }},
		{"chaos", func(c expt.Config) (tabler, error) { return expt.Chaos(c) }},
	}

	var selected []int
	for i, e := range experiments {
		if *experiment == "all" || strings.EqualFold(*experiment, e.name) {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}

	// Run the selected cells concurrently with an ordered reduction:
	// workers pull cell indices from a shared counter, results land in
	// their input slot, and printing walks the slots in order — the
	// output is byte-identical to a serial run (each experiment derives
	// its randomness from its own Config.Seed rng, never shared state).
	workers := *cells
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	type outcome struct {
		res tabler
		err error
	}
	results := make([]outcome, len(selected))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(selected) {
					return
				}
				res, err := experiments[selected[j]].run(cfg)
				results[j] = outcome{res: res, err: err}
			}
		}()
	}
	wg.Wait()

	jsonOut := map[string]interface{}{}
	for j, i := range selected {
		e := experiments[i]
		if results[j].err != nil {
			return fmt.Errorf("%s: %w", e.name, results[j].err)
		}
		if *asJSON {
			jsonOut[e.name] = results[j].res
			continue
		}
		fmt.Fprintln(out, results[j].res.Table().String())
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}
