package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparcle/internal/assign"
	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/server"
	"sparcle/internal/taskgraph"
)

// The traced pass assembles the real internal/server in this process and
// records benchmark-owned spans around the calls into each layer, using
// only seams the program already has: a wrapper around Server.Handler()
// and a placement.Algorithm decorator passed through core.WithAlgorithm.
// The program's own -spans stay off.

// Span names.
const (
	spanAdmit     = "server.handle_admit"
	spanEvict     = "server.handle_evict"
	spanRead      = "server.handle_read"
	spanAssign    = "assign.assign"
	spanAppendRPC = "replica.append_rpc"
)

// opHeader carries the load generator's operation id to the handler wrapper.
const opHeader = "X-Bench-Op"

// span is one recorded interval. Spans of one request share Op; Parent is
// the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Serial marks the single-worker tail of the pass.
	Serial bool `json:"serial,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the pass ends.
type recorder struct {
	on     atomic.Bool
	serial atomic.Bool
	t0     time.Time

	mu     sync.Mutex
	spans  []span
	rootOf map[int]int    // operation id -> its handler span
	opOf   map[string]int // application name -> operation id of its admission
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), rootOf: map[int]int{}, opOf: map[string]int{}}
}

// begin opens a span and returns its id, 0 while recording is off.
func (r *recorder) begin(name string, parent, op, node int) int {
	if !r.on.Load() {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Node: node, Start: now, Serial: r.serial.Load()})
	if parent == 0 && op != 0 {
		r.rootOf[op] = id
	}
	return id
}

func (r *recorder) end(id int, bytes int64) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End, r.spans[id-1].Bytes = now, bytes
	r.mu.Unlock()
}

// bind notes which operation admits the application named name, so that
// work done for it on another goroutine (a group-commit leader) still
// finds its request.
func (r *recorder) bind(name string, op int) {
	r.mu.Lock()
	r.opOf[name] = op
	r.mu.Unlock()
}

func spanName(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/apps":
		return spanAdmit
	case req.Method == http.MethodDelete && strings.HasPrefix(req.URL.Path, "/apps/"):
		return spanEvict
	case req.Method == http.MethodGet && req.URL.Path == "/apps":
		return spanRead
	case req.Method == http.MethodPost && req.URL.Path == "/repl/append":
		return spanAppendRPC
	}
	return ""
}

// wrap records one span per admission, eviction, read and replication
// append RPC served by next.
func (r *recorder) wrap(node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := spanName(req)
		if name == "" {
			next.ServeHTTP(w, req)
			return
		}
		op, _ := strconv.Atoi(req.Header.Get(opHeader)) // absent on peer RPCs: op 0
		id := r.begin(name, 0, op, node)
		next.ServeHTTP(w, req)
		r.end(id, max(req.ContentLength, 0))
	})
}

// timedAlg times every call of the assignment algorithm. Wrapping the
// algorithm hides that it is assign.Sparcle from core.New, which therefore
// does not route its metrics registry and -parallel setting into it: the
// traced pass scores candidates with Sparcle's own default parallelism and
// exports no sparcle_assign_* counters. Those come from the untraced run.
type timedAlg struct {
	inner placement.Algorithm
	rec   *recorder
	node  int
}

func (a timedAlg) Name() string { return a.inner.Name() }

func (a timedAlg) Assign(g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities) (*placement.Placement, error) {
	a.rec.mu.Lock()
	op := a.rec.opOf[g.Name()] // scenario.BuildApp names the graph after the application
	parent := a.rec.rootOf[op]
	a.rec.mu.Unlock()
	id := a.rec.begin(spanAssign, parent, op, a.node)
	p, err := a.inner.Assign(g, pins, net, caps)
	a.rec.end(id, 0)
	return p, err
}

// inproc is the in-process twin of cluster: the same servers, on loopback
// listeners of this process.
type inproc struct {
	servers []*server.Server
	https   []*http.Server
	urls    []string
	dirs    []string
}

func startInproc(w *workload, netw *network.Network, dir string, rec *recorder) (_ *inproc, err error) {
	p := &inproc{}
	var lns []net.Listener
	defer func() {
		if err != nil {
			p.stop()
			for _, ln := range lns {
				ln.Close() // twice is harmless for those a server already owns
			}
		}
	}()
	peers := map[string]string{}
	for i := 0; i < w.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		p.urls = append(p.urls, "http://"+ln.Addr().String())
		p.dirs = append(p.dirs, filepath.Join(dir, fmt.Sprintf("n%d", i)))
		peers[fmt.Sprintf("n%d", i)] = p.urls[i]
	}
	for i, ln := range lns {
		opts := []core.Option{
			core.WithRandSeed(serverSeed),
			core.WithAlgorithm(timedAlg{inner: assign.Sparcle{}, rec: rec, node: i}),
		}
		var srv *server.Server
		if w.Shards > 1 {
			if srv, err = server.NewSharded(netw, w.Shards, opts...); err != nil {
				return nil, err
			}
		} else {
			srv = server.New(netw, opts...)
		}
		p.servers = append(p.servers, srv)
		hs := &http.Server{Handler: rec.wrap(i, srv.Handler())}
		p.https = append(p.https, hs)
		go hs.Serve(ln) // returns when stop closes hs
	}
	// Periodic snapshots are off in this pass so that the journal still
	// holds every record the run wrote when the probes replay it.
	jopt := journal.Options{Fsync: journal.SyncAlways}
	for i, srv := range p.servers {
		switch {
		case w.Nodes > 1:
			if err := srv.EnableReplication(server.ReplicationConfig{
				NodeID: fmt.Sprintf("n%d", i), Peers: peers, Dir: p.dirs[i],
				Journal: jopt, SnapshotEvery: -1, Seed: serverSeed,
			}); err != nil {
				return nil, err
			}
		case w.Journal:
			if err := srv.EnableJournal(p.dirs[i], jopt, 0); err != nil {
				return nil, err
			}
		}
		if w.Group {
			srv.EnableGroupCommit(core.GroupOptions{})
		}
	}
	return p, nil
}

// stop shuts the listeners and closes journals and replica nodes.
func (p *inproc) stop() {
	for _, hs := range p.https {
		hs.Close()
	}
	for _, srv := range p.servers {
		srv.Close()
	}
}

// opRecord is one operation of the traced pass as the generator issued it.
type opRecord struct {
	Op   int
	Kind string // admit, evict, read
	Name string
	Body []byte
}

// traced is what the traced pass hands to the probes and the report.
type traced struct {
	spans   []span
	preload [][]byte   // bodies sent before recording started
	ops     []opRecord // recorded operations, in issue order
	dirs    []string   // journal directories, leader first
	admits  int
	evicts  int
	elapsed time.Duration
	allocKB float64 // runtime.MemStats.TotalAlloc delta of this process, kB
	// solveSec is the leader's sparcle_alloc_solve_seconds_sum delta and
	// appends its journal-append delta across the pass.
	solveSec float64
	appends  float64
}

// tracedPass runs ops operations of w's traffic from two workers and then
// serial more from one, same seed, against the in-process servers, and
// returns the spans and the recorded inputs. With record false the
// recorder stays off: the same pass with tracing off, whose goodput is what
// trace.overhead_pct compares the recorded pass against.
func tracedPass(e *env, w *workload, seed int64, ops, serial int, record bool, res *result) (*traced, error) {
	_, netw, err := e.scenarioOf(w)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	p, err := startInproc(w, netw, e.freshDir(w.Name+"-traced"), rec)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	hc := &http.Client{Timeout: 5 * time.Second}
	leaderURL, err := waitReady(hc, p.urls, 20*time.Second)
	if err != nil {
		return nil, err
	}
	var leader atomic.Pointer[string]
	leader.Store(&leaderURL)

	var info netInfo
	if err := getJSON(hc, leaderURL+"/network", &info); err != nil {
		return nil, err
	}
	var regions [][]string
	if w.Shards > 1 {
		if regions, err = regionHosts(netw, w.Shards); err != nil {
			return nil, err
		}
	}
	gen, err := newGenerator(&info, w.traffic, regions, seed)
	if err != nil {
		return nil, err
	}
	tr := &traced{}
	l := &load{w: w, gen: gen}
	for i := 0; i < workers; i++ {
		l.clients = append(l.clients, &opClient{hc: newHTTPClient(), base: &leader,
			tag: func(req *http.Request, op int) { req.Header.Set(opHeader, strconv.Itoa(op)) }})
	}
	total := &tally{}
	tr.preload = l.preload(total)

	if record {
		l.record = func(op int, kind, name string, body []byte) {
			tr.ops = append(tr.ops, opRecord{Op: op, Kind: kind, Name: name, Body: body})
			if kind == "admit" {
				rec.bind(name, op)
			}
		}
	}
	before, err := scrape(hc, leaderURL)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.on.Store(record)
	start := time.Now()
	end := l.ops + ops
	pass := l.closed(l.reached(end))
	tr.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	after, err := scrape(hc, leaderURL)
	if err != nil {
		return nil, err
	}
	// The serial tail, for the latency budget.
	rec.serial.Store(true)
	all := l.clients
	l.clients = all[:1]
	total.add(l.closed(l.reached(end + serial)))
	l.clients = all
	rec.on.Store(false)
	l.record = nil
	total.add(pass)
	tr.admits, tr.evicts = pass.admitted, pass.evicted
	tr.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	d := after.sub(before)
	tr.solveSec = d.sum("sparcle_alloc_solve_seconds_sum")
	tr.appends = d.sum("sparcle_journal_appends_total")

	var h healthz
	if err := getJSON(hc, leaderURL+"/healthz", &h); err != nil {
		return nil, err
	}
	if got := h.residents(); got != w.K {
		res.problem("traced pass: %d residents, want %d", got, w.K)
	}
	l.drain(total)
	res.Attempted += total.attempted()
	res.Failed += total.failed

	// Leader's journal first: it is the one the probes replay.
	for i, u := range p.urls {
		if u == leaderURL {
			tr.dirs = append([]string{p.dirs[i]}, tr.dirs...)
		} else {
			tr.dirs = append(tr.dirs, p.dirs[i])
		}
	}
	rec.mu.Lock()
	tr.spans = rec.spans
	rec.mu.Unlock()
	return tr, nil
}

// writeSpans writes the pass's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its child spans cover (children of one parent do not overlap here:
// they run one after another on the goroutine that holds the lock).
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
		if spans[i].Parent != 0 {
			self[spans[i].Parent] -= spans[i].dur()
		}
	}
	return self
}

// spanStats summarises the finished spans named name of the two-worker
// part of the pass, or of its serial tail: durations in microseconds and
// the bytes they carried.
func spanStats(spans []span, name string, serial bool) (durUS []float64, bytes float64) {
	for i := range spans {
		if spans[i].Name == name && spans[i].Serial == serial && spans[i].End > 0 {
			durUS = append(durUS, us(spans[i].dur()))
			bytes += float64(spans[i].Bytes)
		}
	}
	return durUS, bytes
}

// runTraced is the traced invocation: a short untraced run against child
// processes for the server's own counters, the in-process pass with the
// recorder off and again with it on, and the isolated probes over what
// the recorded pass saw.
func runTraced(e *env, w *workload, seed int64, seconds int) (*result, error) {
	res, err := runUntraced(e, w, seed, shortPlan(seconds))
	if err != nil {
		return nil, err
	}
	off, err := tracedPass(e, w, seed, tracedOps, 0, false, res)
	if err != nil {
		return nil, err
	}
	tr, err := tracedPass(e, w, seed, tracedOps, serialOps, true, res)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join("benchmark", "out", "trace-"+w.Name+".jsonl"), tr.spans); err != nil {
		return nil, err
	}
	m := res.Metrics
	ops := float64(tr.admits + tr.evicts)

	admitUS, _ := spanStats(tr.spans, spanAdmit, false)
	evictUS, _ := spanStats(tr.spans, spanEvict, false)
	readUS, _ := spanStats(tr.spans, spanRead, false)
	assignUS, _ := spanStats(tr.spans, spanAssign, false)
	rpcUS, rpcBytes := spanStats(tr.spans, spanAppendRPC, false)
	m["server.handle_admit_us"] = median(admitUS)
	m["server.handle_evict_us"] = median(evictUS)
	m["server.handle_read_us"] = median(readUS)
	m["assign.assign_us"] = median(assignUS)
	m["assign.calls_per_adm"] = ratio(float64(len(assignUS)), float64(len(admitUS)))
	m["replica.append_rpc_us"] = median(rpcUS)
	m["replica.rpcs_per_op"] = ratio(float64(len(rpcUS)), ops)
	m["replica.bytes_per_op"] = ratio(rpcBytes, ops)
	m["go.alloc_kb_per_op"] = ratio(tr.allocKB, ops)
	// Both passes run in this process on the same operations, so their
	// difference is the recorder's cost and not that of sharing a process
	// with the load generator.
	tracedGoodput := float64(tr.admits) / tr.elapsed.Seconds()
	offGoodput := float64(off.admits) / off.elapsed.Seconds()
	m["trace.overhead_pct"] = 100 * (1 - ratio(tracedGoodput, offGoodput))
	res.Info["traced_goodput_adm_s"] = tracedGoodput
	res.Info["traced_off_goodput_adm_s"] = offGoodput

	if err := probes(e, w, tr, m); err != nil {
		return nil, err
	}

	// Latency budget of one admission, from medians over the serial tail:
	// what the handler took against the disjoint children the layers
	// account for. What no child covers is the HTTP stack and the
	// handler's own glue; what the two-worker handler time adds on top is
	// waiting for the other client's operation under the scheduler lock.
	serialUS, _ := spanStats(tr.spans, spanAdmit, true)
	handle := median(serialUS)
	// What an admission's child spans (its assign calls) cover.
	self := selfTimes(tr.spans)
	var childUS []float64
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == spanAdmit && s.Serial && s.End > 0 {
			childUS = append(childUS, us(s.dur()-self[s.ID]))
		}
	}
	durable := m["journal.append_us"] + m["journal.fsync_us"]
	if w.Nodes > 1 {
		// Propose contains the leader's own append and fsync.
		durable = m["replica.propose_us"]
	}
	children := map[string]float64{
		"scenario": m["scenario.decode_build_us"],
		"assign":   median(childUS),
		// Admissions and evictions each trigger about one solve and write
		// about as many records.
		"alloc":   ratio(tr.solveSec*1e6, ops) + (1-w.GRShare)*m["alloc.predict_us"],
		"avail":   w.GRShare * m["avail.minrate_us"] * m["avail.paths_per_gr"],
		"durable": durable * ratio(tr.appends, ops),
	}
	covered := 0.0
	for name, v := range children {
		covered += v
		res.Info["budget_"+name+"_us"] = v
	}
	res.Info["budget_handle_admit_us"] = handle
	res.Info["budget_lock_wait_us"] = median(admitUS) - handle
	m["budget.unattributed_pct"] = 100 * (1 - ratio(covered, handle))
	return res, nil
}
