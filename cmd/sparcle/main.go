// Command sparcle schedules the stream processing applications of a JSON
// scenario file onto its dispersed computing network with the SPARCLE
// scheduler and reports, per application, the task assignment paths,
// allocated rates and achieved availability.
//
// Usage:
//
//	sparcle -f scenario.json [-json] [-seed S] [-trace out.jsonl] [-v]
//	sparcle -example > scenario.json
//
// -trace writes the span tree of every scheduler operation as JSON Lines
// to the given file, one obs.SpanRecord per line, with its decisions
// (pinned placements, dynamic-ranking picks, widest-path routes,
// admission verdicts) as span attributes and events; -explain prints the
// placement decisions from the same records; -v logs scheduler activity
// to stderr.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"sort"
	"strings"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/scenario"
	"sparcle/internal/taskgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sparcle:", err)
		os.Exit(1)
	}
}

// appResult is the JSON output per application.
type appResult struct {
	Name         string       `json:"name"`
	Admitted     bool         `json:"admitted"`
	Reason       string       `json:"reason,omitempty"`
	TotalRate    float64      `json:"totalRate,omitempty"`
	Availability float64      `json:"availability,omitempty"`
	Paths        []pathResult `json:"paths,omitempty"`
}

type pathResult struct {
	Rate  float64           `json:"rate"`
	Hosts map[string]string `json:"hosts"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sparcle", flag.ContinueOnError)
	file := fs.String("f", "", "scenario JSON file (required unless -example)")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	seed := fs.Int64("seed", 1, "random seed for availability estimation fallback")
	example := fs.Bool("example", false, "print an example scenario and exit")
	explain := fs.Bool("explain", false, "print each dynamic-ranking placement decision")
	dot := fs.String("dot", "", "write the first path of each admitted app as Graphviz DOT to this file")
	trace := fs.String("trace", "", "write the span tree of every scheduler operation, decisions included, as JSON Lines to this file")
	verbose := fs.Bool("v", false, "log scheduler activity to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *example {
		data, err := scenario.Example().Encode()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(data))
		return err
	}
	if *file == "" {
		return errors.New("missing -f scenario file (or use -example)")
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

	opts := []core.Option{core.WithRandSeed(*seed)}
	if *verbose {
		opts = append(opts, core.WithLogger(obs.NewLogger(os.Stderr, slog.LevelDebug)))
	}
	sched := core.New(net, opts...)
	// Each Submit is one trace: -explain reads it back from a one-trace
	// flight ring, -trace streams it.
	var spans *obs.SpanTracer
	if *explain || *trace != "" {
		sopt := obs.SpanOptions{FlightSize: 1}
		if *trace != "" {
			tf, err := os.Create(*trace)
			if err != nil {
				return err
			}
			defer tf.Close()
			sopt.JSONL = tf
		}
		spans = obs.NewSpanTracer(sopt)
		defer spans.Close() // flushes before the deferred file close
		sched.SetSpans(spans)
	}
	results := make([]appResult, 0, len(apps))
	for _, app := range apps {
		if *explain {
			fmt.Fprintf(out, "-- placing %q --\n", app.Name)
		}
		pa, err := sched.Submit(app)
		if *explain {
			explainTrace(out, spans.Flight())
		}
		if err != nil {
			if errors.Is(err, core.ErrRejected) {
				results = append(results, appResult{Name: app.Name, Admitted: false, Reason: err.Error()})
				continue
			}
			return fmt.Errorf("app %q: %w", app.Name, err)
		}
		results = append(results, describe(pa, net))
	}
	// Rates of earlier BE apps change as later apps arrive: refresh.
	for i := range results {
		for _, pa := range append(sched.BEApps(), sched.GRApps()...) {
			if pa.App.Name == results[i].Name {
				results[i] = describe(pa, net)
			}
		}
	}

	if *dot != "" {
		if err := writeDOT(*dot, sched); err != nil {
			return err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	for _, r := range results {
		if !r.Admitted {
			fmt.Fprintf(out, "%-20s REJECTED: %s\n", r.Name, r.Reason)
			continue
		}
		fmt.Fprintf(out, "%-20s rate=%.4f/s availability=%.4f paths=%d\n", r.Name, r.TotalRate, r.Availability, len(r.Paths))
		for i, p := range r.Paths {
			fmt.Fprintf(out, "  path %d (rate %.4f):", i+1, p.Rate)
			for _, ct := range sortedKeys(p.Hosts) {
				fmt.Fprintf(out, " %s->%s", ct, p.Hosts[ct])
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

func describe(pa *core.PlacedApp, net *network.Network) appResult {
	r := appResult{
		Name:         pa.App.Name,
		Admitted:     true,
		TotalRate:    pa.TotalRate(),
		Availability: pa.Availability,
	}
	for _, path := range pa.Paths {
		hosts := map[string]string{}
		for ct := 0; ct < pa.App.Graph.NumCTs(); ct++ {
			id := taskgraph.CTID(ct)
			hosts[pa.App.Graph.CT(id).Name] = net.NCP(path.P.Host(id)).Name
		}
		r.Paths = append(r.Paths, pathResult{Rate: path.Rate, Hosts: hosts})
	}
	return r
}

// explainTrace prints the placement decisions of the last finished trace
// in the order they were made: each assign.path span's pinned placements
// ("pin" events), then the picks of its assign.rank children. Span ids
// grow in creation order, so sorting by id restores that order.
func explainTrace(out io.Writer, traces [][]obs.SpanRecord) {
	if len(traces) == 0 {
		return
	}
	recs := slices.Clone(traces[len(traces)-1])
	slices.SortFunc(recs, func(a, b obs.SpanRecord) int { return cmp.Compare(a.Span, b.Span) })
	for _, r := range recs {
		switch r.Name {
		case "assign.path":
			for _, ev := range r.Events {
				if ev.Name == "pin" {
					fmt.Fprintf(out, "  step %d: %s pinned to %s\n", ev.Attrs["step"], ev.Attrs["ct"], ev.Attrs["host"])
				}
			}
		case "assign.rank":
			// An iteration that found no feasible host picked nothing.
			if ct, ok := r.Attrs["ct"]; ok {
				fmt.Fprintf(out, "  step %d: %s -> %s (gamma %.4f)\n", r.Attrs["step"], ct, r.Attrs["host"], float64(r.Attrs["gamma"].(obs.Float)))
			}
		}
	}
}

// writeDOT renders the first path of every admitted application into one
// DOT file (multiple digraphs, one per app).
func writeDOT(path string, sched *core.Scheduler) error {
	var b strings.Builder
	for _, pa := range append(sched.GRApps(), sched.BEApps()...) {
		if len(pa.Paths) > 0 {
			b.WriteString(pa.Paths[0].P.DOT())
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// sortedKeys returns the map's keys in sorted order for stable output.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
