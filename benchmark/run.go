package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"sparcle/internal/network"
)

// plan is how much of the untraced run an invocation makes. The full plan
// yields the end-to-end metrics; the traced invocation makes a short one
// for the counters of the [M] per-layer metrics.
type plan struct {
	closed, open time.Duration
	setups       int
	recovers     int
}

func fullPlan(w *workload, seconds int) plan {
	half := time.Duration(seconds) * time.Second / 2
	return plan{closed: half, open: half, setups: w.Setups, recovers: w.Recovers}
}

func shortPlan(seconds int) plan {
	quarter := time.Duration(seconds) * time.Second / 4
	return plan{closed: quarter, open: quarter, setups: 2, recovers: 3}
}

// result is what one pass over one workload measured.
type result struct {
	// Metrics holds end-to-end, ungated and per-layer values by name.
	Metrics map[string]float64 `json:"metrics"`
	// Info holds sample counts and other numbers that are not metrics.
	Info      map[string]float64 `json:"info,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Problems lists every failed check; a run is correct when it is empty.
	Problems []string `json:"problems,omitempty"`
	// Void marks a run whose cluster changed term: it is not a
	// measurement of steady state and is made again.
	Void bool `json:"void,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// env is what every pass of one invocation shares.
type env struct {
	serverBin string
	workDir   string // scratch for scenario files and journals, removed at exit
	dirs      int    // directories handed out by freshDir
}

// freshDir names a directory under workDir that no earlier pass of this
// invocation has used: a journal left by one pass must not be recovered
// by the next.
func (e *env) freshDir(name string) string {
	e.dirs++
	return filepath.Join(e.workDir, fmt.Sprintf("%s-%d", name, e.dirs))
}

func newEnv() (*env, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &env{serverBin: bin, workDir: abs}, nil
}

func (e *env) close() { os.RemoveAll(e.workDir) }

// scenarioOf writes w's scenario file and returns it with the network.
func (e *env) scenarioOf(w *workload) (string, *network.Network, error) {
	f := meshScenario(w.Mesh)
	data, err := f.Encode()
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(e.workDir, w.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", nil, err
	}
	netw, err := f.BuildNetwork()
	return path, netw, err
}

// untraced is one run against child server processes, tracing off.
type untraced struct {
	e    *env
	w    *workload
	seed int64
	p    plan
	res  *result

	hc       *http.Client // control requests: health, metrics, listings
	netw     *network.Network
	scenario string
	regions  [][]string
	c        *cluster
	l        *load
	cal      *calibrator
	leader   atomic.Pointer[string]
}

func runUntraced(e *env, w *workload, seed int64, p plan) (*result, error) {
	u := &untraced{e: e, w: w, seed: seed, p: p, hc: &http.Client{Timeout: 5 * time.Second},
		res: &result{Metrics: map[string]float64{}, Info: map[string]float64{}}}
	var err error
	if u.scenario, u.netw, err = e.scenarioOf(w); err != nil {
		return nil, err
	}
	if w.Shards > 1 {
		if u.regions, err = regionHosts(u.netw, w.Shards); err != nil {
			return nil, err
		}
	}
	if u.cal, err = startCalibrator(); err != nil {
		return nil, err
	}
	defer func() {
		u.cal.stop()
		if u.c != nil {
			u.c.kill()
		}
	}()
	return u.res, u.run()
}

// setup starts a fresh cluster, waits until it is ready and preloads K
// residents; it returns the bodies sent and how long all of that took.
func (u *untraced) setup(t *tally) ([][]byte, time.Duration, error) {
	c, err := newCluster(u.e.serverBin, u.w, u.scenario, u.e.freshDir(u.w.Name))
	if err != nil {
		return nil, 0, err
	}
	u.c = c
	start := time.Now()
	if err := c.start(); err != nil {
		return nil, 0, err
	}
	if err := u.awaitReady(); err != nil {
		return nil, 0, err
	}
	if err := u.newLoad(); err != nil {
		return nil, 0, err
	}
	bodies := u.l.preload(t)
	return bodies, time.Since(start), nil
}

func (u *untraced) awaitReady() error {
	leader, err := waitReady(u.hc, u.c.urls(), 20*time.Second)
	if err != nil {
		return fmt.Errorf("%w\n%s", err, u.c.logs())
	}
	u.leader.Store(&leader)
	return nil
}

// newLoad calibrates a generator from the live server, seeded by the
// run's seed: every set-up of a run sends the same stream.
func (u *untraced) newLoad() error {
	var info netInfo
	if err := getJSON(u.hc, *u.leader.Load()+"/network", &info); err != nil {
		return err
	}
	gen, err := newGenerator(&info, u.w.traffic, u.regions, u.seed)
	if err != nil {
		return err
	}
	u.l = &load{w: u.w, gen: gen}
	for i := 0; i < workers; i++ {
		u.l.clients = append(u.l.clients, &opClient{hc: newHTTPClient(), base: &u.leader})
	}
	return nil
}

// listing fetches GET /apps from base, raw and decoded.
func (u *untraced) listing(base string) ([]byte, []appView, error) {
	resp, err := u.hc.Get(base + "/apps")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	var views []appView
	if err := json.Unmarshal(raw.Bytes(), &views); err != nil {
		return nil, nil, err
	}
	return raw.Bytes(), views, nil
}

// expectResidents checks the server's own resident count.
func (u *untraced) expectResidents(when string, want int) {
	var h healthz
	if err := getJSON(u.hc, *u.leader.Load()+"/healthz", &h); err != nil {
		u.res.problem("%s: healthz: %v", when, err)
		return
	}
	if got := h.residents(); got != want {
		u.res.problem("%s: %d residents, want %d", when, got, want)
	}
}

func (u *untraced) run() error {
	w, res, total := u.w, u.res, &tally{}

	// Set-up, several times: the last cluster is the one measured.
	var setupS, reaped []float64
	var bodies [][]byte
	setupsFrom := time.Now()
	for i := 0; i < u.p.setups; i++ {
		if u.c != nil {
			u.c.kill()
		}
		reaped = append(reaped, childrenCPU())
		t := &tally{}
		b, d, err := u.setup(t)
		if err != nil {
			return err
		}
		total.add(t)
		bodies = b
		setupS = append(setupS, d.Seconds())
	}
	u.calibrated("setup_s", median(setupS), setupsFrom, time.Now(), onCPU(reaped, setupS))
	u.expectResidents("after preload", w.K)

	// Output check: the preloaded placements and rates equal an
	// in-process reference replaying the same bodies.
	_, got, err := u.listing(*u.leader.Load())
	if err != nil {
		return err
	}
	want, err := reference(w, u.netw, bodies)
	if err != nil {
		return err
	}
	if err := sameListing(got, want); err != nil {
		res.problem("output check after preload: %v", err)
	}

	if u.p.recovers > 0 {
		if err := u.recover(total); err != nil {
			return err
		}
	}
	terms, err := u.terms()
	if err != nil {
		return err
	}

	// Warm-up, discarded but counted.
	total.add(u.l.closed(until(time.Now().Add(warmup))))
	u.expectResidents("after warm-up", w.K)

	// Closed phase: the workers back to back.
	before, err := u.sample()
	if err != nil {
		return err
	}
	closed := u.l.closed(until(time.Now().Add(u.p.closed)))
	after, err := u.sample()
	if err != nil {
		return err
	}
	total.add(closed)
	u.expectResidents("after closed phase", w.K)
	wall := after.at.Sub(before.at).Seconds()
	// A rate is the inverse of a time: it is calibrated with share -1.
	u.calibrated("goodput_adm_s", float64(closed.admitted)/closed.elapsed.Seconds(), before.at, after.at, -1)
	res.Info["closed_admitted"] = float64(closed.admitted)
	u.calibrated("cpu_ms_per_adm", ratio((after.cpu-before.cpu)*1000, float64(closed.admitted)), before.at, after.at, 1)
	u.calibrated("closed_admit_p50_ms", percentile(closed.admitMS, 0.50), before.at, after.at, 1)
	u.calibrated("closed_evict_p50_ms", percentile(closed.evictMS, 0.50), before.at, after.at, 1)
	res.Metrics["host.slowdown"] = u.cal.slowdown(before.at, after.at)
	res.Metrics["loadgen.cpu_share"] = (after.self - before.self) / wall
	u.layerCounters(before, after, closed, wall)
	u.drift(closed)

	// Open phase: seeded Poisson arrivals at the frozen rate.
	openFrom := time.Now()
	open := u.l.open(u.p.open, u.seed+1)
	openTo := time.Now()
	total.add(open)
	u.expectResidents("after open phase", w.K)
	u.calibrated("admit_p50_ms", percentile(open.admitMS, 0.50), openFrom, openTo, 1)
	u.calibrated("admit_p95_ms", percentile(open.admitMS, 0.95), openFrom, openTo, 1)
	u.calibrated("admit_p99_ms", percentile(open.admitMS, 0.99), openFrom, openTo, 1)
	u.calibrated("evict_p50_ms", percentile(open.evictMS, 0.50), openFrom, openTo, 1)
	res.Metrics["loadgen.lag_p95_ms"] = percentile(open.lagMS, 0.95)
	res.Info["open_admit_samples"] = float64(len(open.admitMS))
	res.Info["open_offered"] = float64(open.submitted)

	if res.Metrics["server_rss_mb"], err = u.c.rssMB(); err != nil {
		return err
	}
	if err := u.quiesced(); err != nil {
		return err
	}
	termsEnd, err := u.terms()
	if err != nil {
		return err
	}
	res.Metrics["replica.term_changes"] = termsEnd - terms
	res.Void = termsEnd != terms

	u.l.drain(total)
	u.expectResidents("after drain", 0)

	submitted := float64(closed.submitted + open.submitted)
	res.Metrics["reject_ratio"] = ratio(float64(closed.rejected+open.rejected), submitted)
	res.Metrics["admit_ratio"] = 1 - res.Metrics["reject_ratio"]
	res.Attempted = total.attempted()
	res.Failed = total.failed + len(res.Problems)
	res.Metrics["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	return nil
}

// calibrated records under name a time measured over [from, to], put on
// the calibrated clock, and under "raw_" + name the time as measured.
// share is how much of the time the servers spent on a CPU, and so how
// much of it slows down when the machine does: 1 for the loaded phases, and
// what onCPU found for set-up and recovery, where a listening socket or an
// election timeout is waited for.
func (u *untraced) calibrated(name string, v float64, from, to time.Time, share float64) {
	u.res.Info["raw_"+name] = v
	u.res.Metrics[name] = v / math.Pow(u.cal.slowdown(from, to), share)
}

// onCPU is the share of the start-up cycles' wall time that their server
// processes spent on a CPU, at most 1. reaped[i] is the CPU time of all
// children waited for before cycle i began, so the last cycle, whose servers
// still run, is left out; a single cycle counts as all work.
func onCPU(reaped, wallS []float64) float64 {
	n := len(wallS) - 1
	if n < 1 {
		return 1
	}
	wall := 0.0
	for _, s := range wallS[:n] {
		wall += s
	}
	return min((reaped[n]-reaped[0])/wall, 1)
}

// recover measures restart-to-ready after a crash, several times on
// the same journals: SIGKILL every node, exec them again, wait until the
// cluster is ready and not recovering. A journaled workload must list the
// same applications afterwards; one without a journal comes back empty
// by design and is preloaded again.
func (u *untraced) recover(total *tally) error {
	if u.w.Churn > 0 {
		total.add(u.l.closed(u.l.reached(u.l.ops + u.w.Churn)))
		one := u.l.clients
		u.l.clients = one[:1]
		for tail := -1; tail < churnTail || tail > churnTail+8; {
			total.add(u.l.closed(u.l.reached(u.l.ops + 1)))
			var h healthz
			if err := getJSON(u.hc, *u.leader.Load()+"/healthz", &h); err != nil {
				return err
			}
			tail = h.Journal.SinceSnapshot
		}
		u.l.clients = one
		u.expectResidents("after churn", u.w.K)
	}
	pre, _, err := u.listing(*u.leader.Load())
	if err != nil {
		return err
	}
	var recoverS, reaped []float64
	recoversFrom := time.Now()
	for i := 0; i < u.p.recovers; i++ {
		u.c.kill()
		reaped = append(reaped, childrenCPU())
		start := time.Now()
		if err := u.c.start(); err != nil {
			return err
		}
		if err := u.awaitReady(); err != nil {
			return err
		}
		recoverS = append(recoverS, time.Since(start).Seconds())
		if u.w.Journal {
			post, _, err := u.listing(*u.leader.Load())
			if err != nil {
				return err
			}
			if !bytes.Equal(pre, post) {
				u.res.problem("recovery %d: listing after restart differs from the listing before the kill", i)
			}
		}
	}
	u.calibrated("recover_s", median(recoverS), recoversFrom, time.Now(), onCPU(reaped, recoverS))
	if !u.w.Journal {
		u.l.residents = nil
		u.l.preload(total)
	}
	u.expectResidents("after recovery", u.w.K)
	return nil
}

// sampled is the state read at a phase boundary.
type sampled struct {
	at   time.Time
	cpu  float64 // server processes
	self float64 // this process
	prom promSample
}

func (u *untraced) sample() (*sampled, error) {
	s := &sampled{at: time.Now(), self: selfCPU()}
	var err error
	if s.cpu, err = u.c.cpuSeconds(); err != nil {
		return nil, err
	}
	if s.prom, err = scrape(u.hc, *u.leader.Load()); err != nil {
		return nil, err
	}
	return s, nil
}

// layerCounters derives the [M] per-layer metrics from the server's own
// counters across the closed phase (the leader's, when replicated).
func (u *untraced) layerCounters(before, after *sampled, closed *tally, wall float64) {
	m := u.res.Metrics
	d := after.prom.sub(before.prom)
	adm := float64(closed.admitted)
	ops := float64(closed.admitted + closed.evicted)
	solves := d.sum("sparcle_alloc_solves_total")
	solveSec := d.sum("sparcle_alloc_solve_seconds_sum")

	m["server.http_requests"] = d.sum("sparcle_http_requests_total")
	grouped := d.sum("sparcle_group_commit_size_sum")
	m["core.group_size_mean"] = ratio(grouped, d.sum("sparcle_group_commit_size_count"))
	m["core.group_follow_ratio"] = ratio(d.sum("sparcle_group_commit_follows_total"), grouped)
	m["core.solves_per_op"] = ratio(solves, ops)
	m["assign.gamma_evals_per_adm"] = ratio(d.sum("sparcle_assign_gamma_evals_total"), adm)
	hits, misses := d.sum("sparcle_assign_widest_cache_hits_total"), d.sum("sparcle_assign_widest_cache_misses_total")
	m["assign.widest_hit_ratio"] = ratio(hits, hits+misses)
	m["alloc.solve_us"] = ratio(solveSec*1e6, solves)
	m["alloc.busy_share"] = solveSec / wall
	m["alloc.cycles_per_solve"] = ratio(d.sum("sparcle_alloc_solve_cycles_sum"), d.sum("sparcle_alloc_solve_cycles_count"))
	m["alloc.warm_ratio"] = ratio(d.sum("sparcle_alloc_warm_solves_total"), solves)
	m["alloc.rows_nnz"] = after.prom.sum("sparcle_alloc_rows_nnz")
	m["journal.recs_per_adm"] = ratio(d.sum("sparcle_journal_appends_total"), adm)
	m["replica.quorum_acks_per_adm"] = ratio(d.sum("sparcle_repl_quorum_acks_total"), adm)
	m["replica.peer_lag_max"] = after.prom.max("sparcle_repl_peer_lag")
	// The server exports no count of cross-region admissions (its
	// scheduler counters also count halves that were rolled back), so this
	// one is read off the admission responses.
	m["shard.cross_ratio"] = ratio(float64(closed.cross), adm)
	m["shard.lease_util_max"] = after.prom.max("sparcle_border_utilization")
	m["go.gc_pause_ms"] = d.sum("sparcle_go_gc_pause_seconds_total") * 1000
}

// drift splits the closed phase into thirds and fails the run when the
// last third admits under driftFloor of the first.
func (u *untraced) drift(closed *tally) {
	third := u.p.closed / 3
	var n [3]int
	for _, at := range closed.admittedAt {
		n[min(int(at/third), 2)]++
	}
	r := ratio(float64(n[2]), float64(n[0]))
	u.res.Info["drift_last_over_first"] = r
	if r < driftFloor {
		u.res.problem("closed phase drifts: thirds admitted %v, last/first %.2f < %.2f", n, r, driftFloor)
	}
}

// terms is the sum of the nodes' replication terms, 0 when not replicated.
func (u *untraced) terms() (float64, error) {
	if u.w.Nodes == 1 {
		return 0, nil
	}
	sum := 0.0
	for _, n := range u.c.nodes {
		var h healthz
		if err := getJSON(u.hc, n.url()+"/healthz", &h); err != nil {
			return 0, err
		}
		sum += float64(h.Replication.Term)
	}
	return sum, nil
}

// quiesced waits for every follower to apply the leader's log, then
// checks that all nodes list identical applications and that the list is
// exactly the acknowledged admissions not yet evicted.
func (u *untraced) quiesced() error {
	var listings [][]byte
	var views []appView
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < len(u.c.nodes); {
		var h healthz
		if err := getJSON(u.hc, u.c.nodes[i].url()+"/healthz", &h); err != nil {
			return err
		}
		if r := h.Replication; r != nil && r.LastApplied != r.LastSeq && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		raw, v, err := u.listing(u.c.nodes[i].url())
		if err != nil {
			return err
		}
		listings, views = append(listings, raw), v
		i++
	}
	for i := 1; i < len(listings); i++ {
		if !bytes.Equal(listings[0], listings[i]) {
			u.res.problem("after quiesce: node %d lists other applications than node 0", i)
		}
	}
	listed := map[string]bool{}
	for _, v := range views {
		listed[logicalName(v.Name)] = true
	}
	if len(listed) != len(u.l.residents) {
		u.res.problem("after quiesce: %d applications listed, %d acknowledged and not evicted", len(listed), len(u.l.residents))
	}
	for _, name := range u.l.residents {
		if !listed[name] {
			u.res.problem("after quiesce: acknowledged application %q is not listed", name)
		}
	}
	return nil
}

// logicalName strips the "@region" suffix a cross-region half is listed under.
func logicalName(listed string) string {
	name, _, _ := strings.Cut(listed, "@")
	return name
}
