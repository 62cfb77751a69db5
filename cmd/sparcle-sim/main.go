// Command sparcle-sim schedules a JSON scenario with SPARCLE and then
// executes the placed applications in the discrete-event simulator,
// reporting per-application measured throughput and end-to-end latency —
// the equivalent of the paper's Mininet run for a scenario file.
//
// Usage:
//
//	sparcle-sim -f scenario.json [-duration 2000] [-warmup 200] [-load 0.9] [-trace out.jsonl] [-v]
//
// -trace writes the span tree of every scheduler operation, decisions
// included, as JSON Lines to the given file (the obs.SpanRecord schema
// sparcle and sparcle-server write); -v logs scheduler activity to
// stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"sparcle/internal/core"
	"sparcle/internal/obs"
	"sparcle/internal/scenario"
	"sparcle/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sparcle-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sparcle-sim", flag.ContinueOnError)
	file := fs.String("f", "", "scenario JSON file (required)")
	duration := fs.Float64("duration", 2000, "simulated seconds")
	warmup := fs.Float64("warmup", 200, "warmup seconds excluded from statistics")
	load := fs.Float64("load", 0.95, "input rate as a fraction of each path's allocated rate")
	trace := fs.String("trace", "", "write the span tree of every scheduler operation, decisions included, as JSON Lines to this file")
	verbose := fs.Bool("v", false, "log scheduler activity to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return errors.New("missing -f scenario file")
	}
	if *load <= 0 {
		return errors.New("-load must be positive")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	f, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	net, err := f.BuildNetwork()
	if err != nil {
		return err
	}
	apps, err := f.BuildApps(net)
	if err != nil {
		return err
	}

	var opts []core.Option
	if *verbose {
		opts = append(opts, core.WithLogger(obs.NewLogger(os.Stderr, slog.LevelDebug)))
	}
	sched := core.New(net, opts...)
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer tf.Close()
		spans := obs.NewSpanTracer(obs.SpanOptions{JSONL: tf, FlightSize: 1})
		defer spans.Close() // flushes before the deferred file close
		sched.SetSpans(spans)
	}
	type placed struct {
		name  string
		first int // index of the app's first path in the simulator
		paths int
	}
	sim := simnet.New(net)
	var admitted []placed
	simApps := 0
	for _, app := range apps {
		pa, err := sched.Submit(app)
		if err != nil {
			if errors.Is(err, core.ErrRejected) {
				fmt.Fprintf(out, "%-20s REJECTED (%v)\n", app.Name, err)
				continue
			}
			return fmt.Errorf("app %q: %w", app.Name, err)
		}
		entry := placed{name: app.Name, first: simApps}
		for _, path := range pa.Paths {
			if path.Rate <= 0 {
				continue
			}
			if err := sim.AddApp(path.P, path.Rate**load); err != nil {
				return err
			}
			simApps++
			entry.paths++
		}
		admitted = append(admitted, entry)
	}
	if simApps == 0 {
		return errors.New("no admitted applications to simulate")
	}

	rep, err := sim.Run(simnet.Config{Duration: *duration, Warmup: *warmup})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-20s %10s %12s %12s %12s\n", "app", "paths", "throughput", "mean lat", "p95 lat")
	for _, a := range admitted {
		var tp, meanLat, p95 float64
		for i := a.first; i < a.first+a.paths; i++ {
			st := rep.Apps[i]
			tp += st.Throughput
			meanLat += st.MeanLatency * st.Throughput
			if st.P95Latency > p95 {
				p95 = st.P95Latency
			}
		}
		if tp > 0 {
			meanLat /= tp
		}
		fmt.Fprintf(out, "%-20s %10d %11.4f/s %11.3fs %11.3fs\n", a.name, a.paths, tp, meanLat, p95)
	}
	return nil
}
