// Command benchmark is the admission-service benchmark of this repository:
// four workloads that each pin a resident set on fresh sparcle-server
// child processes, end-to-end metrics measured with tracing off, and a
// separate traced pass with isolated probes for the per-layer metrics.
// benchmark/README.md describes the workloads and every metric;
// BENCHMARK.json at the repository root names them for the driver.
//
// Usage:
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, result line on stdout
//	benchmark -seed N -out FILE [-repeat N]                  every workload's end-to-end metrics into a run file
//	benchmark -compare A.json B.json                         B judged against A by the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 1 && args[0] == "-calibrate" {
		return calibrate() // the calibrator child of an untraced run
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload and print the driver's result line")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same request stream")
	seconds := fs.Int("seconds", sp.RunSeconds, "measured seconds per run, half closed phase and half open phase")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 the per-layer metrics (traced pass)")
	out := fs.String("out", "", "suite mode: run every workload with tracing off and write the run file here")
	repeat := fs.Int("repeat", 1, "suite mode: run the suite this many times into one file, with median and quartiles per cell")
	compare := fs.Bool("compare", false, "compare two run files given as arguments: exit status 1 if any metric is worse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 4 {
		return errors.New("-seconds must be at least 4")
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two run files")
		}
		return compareFiles(os.Stdout, sp.EndToEnd, fs.Arg(0), fs.Arg(1))
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return driverRun(sp, w, *seed, *seconds, *trace == 1)
	case *out != "":
		return suite(sp, *out, *seed, *seconds, *repeat)
	}
	fs.Usage()
	return errors.New("one of -workload, -out or -compare is required")
}

// valid runs one pass, once more if it comes out void.
func valid(pass func() (*result, error)) (*result, error) {
	res, err := pass()
	if err == nil && res.Void {
		fmt.Fprintln(os.Stderr, "benchmark: void run (the cluster changed term), running it again")
		res, err = pass()
	}
	return res, err
}

// driverRun makes one run of one workload and prints, as the last line of
// standard output, the result object the driver reads: the end-to-end
// metrics with tracing off, or every per-layer metric from the traced pass.
func driverRun(sp *spec, w *workload, seed int64, seconds int, traced bool) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	names := sp.EndToEnd
	pass := func() (*result, error) { return runUntraced(e, w, seed, fullPlan(w, seconds)) }
	if traced {
		names = sp.PerLayer
		pass = func() (*result, error) { return runTraced(e, w, seed, seconds) }
	}
	res, err := valid(pass)
	if err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	if info, err := json.Marshal(res.Info); err == nil {
		fmt.Fprintln(os.Stderr, "benchmark: info", string(info))
	}
	if traced {
		printDominance(os.Stderr, w, res)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.Problems) == 0 && !res.Void, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range names {
		line.Metrics[m.Name] = value{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
