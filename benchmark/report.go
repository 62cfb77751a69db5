package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// header describes the machine, the commit and the frozen constants of a
// run file, so that two files can be judged comparable before their
// numbers are.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	JournalFS  string `json:"journalFilesystem"`
	Placement  string `json:"placement"`
	Seed       int64  `json:"seed"`
	Repeat     int    `json:"repeat"`
	// Phase lengths in seconds.
	WarmupS float64 `json:"warmupSeconds"`
	ClosedS float64 `json:"closedSeconds"`
	OpenS   float64 `json:"openSeconds"`
	// The calibrated clock's frozen constants: a burst's nominal thread CPU
	// time and how much of the kernel's slowdown the servers show.
	CalibNominalMS   float64 `json:"calibNominalMs"`
	CalibSensitivity float64 `json:"calibSensitivity"`
	// Workloads maps each workload to its frozen K and R.
	Workloads map[string]map[string]float64 `json:"workloads"`
	// ProgramGoLines counts non-test Go lines outside benchmark/: the
	// ROADMAP's "least code" trajectory.
	ProgramGoLines int `json:"programGoLines"`
}

func newHeader(seed int64, seconds, repeat int) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown", JournalFS: fsType(buildDir),
		Placement: "client and servers co-located on one machine, loopback only: no message delay is injected, so replicated latency is processing plus fsync",
		Seed:      seed, Repeat: repeat,
		WarmupS: warmup.Seconds(), ClosedS: float64(seconds) / 2, OpenS: float64(seconds) / 2,
		CalibNominalMS: calibNominal / 1e6, CalibSensitivity: calibSensitivity,
		Workloads: map[string]map[string]float64{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	for _, w := range workloads {
		h.Workloads[w.Name] = map[string]float64{"K": float64(w.K), "R": w.R}
	}
	h.ProgramGoLines = programGoLines(".")
	return h
}

// programGoLines counts the lines of non-test Go files under root,
// leaving out the benchmark itself.
func programGoLines(root string) int {
	lines := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable directory counts nothing
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines++
		}
		return nil
	})
	return lines
}

// cell summarises one workload × metric over a file's repeats.
type cell struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// spread is the interquartile range as a share of the median.
func (c cell) spread() float64 { return ratio(c.Q3-c.Q1, c.Median) }

// runFile is what suite mode writes and -compare reads.
type runFile struct {
	Header header `json:"header"`
	// Runs holds, per repeat, each workload's result.
	Runs []map[string]*result `json:"runs"`
	// Summary is workload -> metric -> cell over the repeats.
	Summary map[string]map[string]cell `json:"summary"`
}

func (f *runFile) summarise() {
	f.Summary = map[string]map[string]cell{}
	for _, w := range workloads {
		vals := map[string][]float64{}
		for _, run := range f.Runs {
			if res := run[w.Name]; res != nil {
				for name, v := range res.Metrics {
					vals[name] = append(vals[name], v)
				}
			}
		}
		f.Summary[w.Name] = map[string]cell{}
		for name, v := range vals {
			q1, med, q3 := quartiles(v)
			f.Summary[w.Name][name] = cell{N: len(v), Median: med, Q1: q1, Q3: q3}
		}
	}
}

// suite runs every workload repeat times with tracing off and writes one
// run file: the end-to-end numbers -compare reads. Per-layer numbers and
// the dominance table come from -workload W -trace 1.
func suite(sp *spec, out string, seed int64, seconds, repeat int) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	file := &runFile{Header: newHeader(seed, seconds, repeat)}
	bad := 0
	for rep := 0; rep < repeat; rep++ {
		run := map[string]*result{}
		for i := range workloads {
			w := &workloads[i]
			fmt.Fprintf(os.Stderr, "benchmark: repeat %d/%d %s\n", rep+1, repeat, w.Name)
			res, err := valid(func() (*result, error) { return runUntraced(e, w, seed, fullPlan(w, seconds)) })
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", w.Name, p)
			}
			if len(res.Problems) > 0 || res.Failed > 0 || res.Void {
				bad++
			}
			run[w.Name] = res
		}
		file.Runs = append(file.Runs, run)
	}
	file.summarise()
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printSummary(os.Stdout, sp.EndToEnd, file)
	if bad > 0 {
		return fmt.Errorf("%d workload run(s) failed a check, failed an operation or were void", bad)
	}
	return nil
}

// printSummary prints every end-to-end metric by name with its unit, one
// column per workload (medians over the repeats).
func printSummary(w io.Writer, endToEnd []metric, f *runFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t", wl.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range append(append([]metric{}, endToEnd...), ungated...) {
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(tw, "%.4g\t", f.Summary[wl.Name][m.Name].Median)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// printDominance prints, after a traced run of w, which layers dominate an
// admission against the target the workload was built to meet;
// mixed_shard4 was built to no such target.
func printDominance(out io.Writer, w *workload, res *result) {
	if w.Name == "mixed_shard4" {
		return
	}
	share := func(names ...string) float64 {
		total := 0.0
		for _, n := range names {
			total += res.Info["budget_"+n+"_us"]
		}
		return ratio(total, res.Info["budget_handle_admit_us"])
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "dominance\tworkload\tvalue\ttarget")
	switch w.Name {
	case "solve_bound":
		fmt.Fprintf(tw, "alloc.busy_share\t%s\t%.2f\t>= 0.60\n", w.Name, res.Metrics["alloc.busy_share"])
	case "place_bound":
		fmt.Fprintf(tw, "alloc.busy_share\t%s\t%.2f\t<= 0.15\n", w.Name, res.Metrics["alloc.busy_share"])
		// HTTP self time is what no other layer accounts for.
		http := 1 - share("scenario", "assign", "alloc", "avail", "durable")
		fmt.Fprintf(tw, "assign+scenario+HTTP share of handle_admit\t%s\t%.2f\t>= 0.50\n", w.Name, share("scenario", "assign")+http)
	case "durable_repl3":
		fmt.Fprintf(tw, "replica+journal share of handle_admit\t%s\t%.2f\t>= 0.50\n", w.Name, share("durable"))
	}
	tw.Flush()
}

// verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate cell b with baseline cell a under m's bound.
// A relative metric whose run-to-run spread on either side is wider than
// the bound cannot be resolved; an absolute bound is on the increase.
func judge(m metric, a, b cell) string {
	if m.Absolute {
		if b.Median-a.Median > m.Bound {
			return verdictWorse
		}
		return verdictOK
	}
	if max(a.spread(), b.spread()) > m.Bound {
		return verdictUnresolved
	}
	worse := ratio(b.Median-a.Median, a.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return verdictWorse
	}
	return verdictOK
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareFiles prints one row per workload × end-to-end or ungated metric
// with both medians, the bound and the verdict, and returns errWorse if any row is
// worse.
func compareFiles(w io.Writer, endToEnd []metric, pathA, pathB string) error {
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tbound\tverdict")
	worse := false
	row := func(wl string, m metric) {
		ca, okA := a.Summary[wl][m.Name]
		cb, okB := b.Summary[wl][m.Name]
		if !okA || !okB {
			return
		}
		v := judge(m, ca, cb)
		worse = worse || v == verdictWorse
		bound := fmt.Sprintf("%.0f%%", m.Bound*100)
		if m.Absolute {
			bound = fmt.Sprintf("+%g", m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%s\t%s\n", wl, m.Name, m.Unit, ca.Median, cb.Median, bound, v)
	}
	for _, wl := range workloads {
		for _, m := range append(append([]metric{}, endToEnd...), ungated...) {
			row(wl.Name, m)
		}
	}
	tw.Flush()
	if worse {
		return errWorse
	}
	return nil
}
