// Package server exposes a running SPARCLE scheduler over HTTP, turning
// the library into the long-lived control-plane service a dispersed
// computing deployment needs: applications are submitted, inspected,
// repaired and withdrawn through a small JSON API, and capacity
// fluctuations observed by monitoring can be pushed in.
//
//	GET    /healthz            liveness, uptime and admission summary
//	GET    /metrics            Prometheus text exposition of all metrics
//	GET    /debug/vars         JSON snapshot of the same metrics
//	GET    /network            the network topology and capacities
//	GET    /apps               all admitted applications with rates
//	POST   /apps               submit one scenario.AppSpec
//	POST   /apps/batch         submit several specs as one atomic batch
//	DELETE /apps/{name}        withdraw an application
//	POST   /apps/{name}/repair re-place a violated GR application
//	POST   /fluctuation        apply element capacity scales
//
// With EnableJournal the server is durable: every mutating operation is
// committed to a write-ahead journal before its response is sent, and a
// restarted server recovers the exact pre-crash scheduler from snapshot
// plus bounded replay. While recovery runs, mutating routes answer 503.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/replica"
	"sparcle/internal/scenario"
	"sparcle/internal/shard"
	"sparcle/internal/taskgraph"
)

// Server serves a region-sharded admission router (internal/shard) with a
// JSON HTTP API; one region is the whole network under one scheduler.
// The router carries a lock and a group-commit queue per region, so the
// server itself serializes no scheduler work: mu only guards the
// configuration the Enable* calls write. The metrics registry has its
// own synchronization; a scrape only takes each shard lock in turn, to
// read the residents its gauges are rendered from.
type Server struct {
	mu       sync.Mutex
	net      *network.Network
	metrics  *obs.Registry
	start    time.Time
	requests atomic.Uint64

	// rebuildShard builds each region's scheduler under the options
	// NewSharded resolved, for the first router and every rebuilt one.
	rebuildShard shard.ShardRebuilder
	// journal is non-nil once EnableJournal succeeds.
	journal *journal.Journal
	// recovering gates mutating routes behind 503 while journal recovery
	// rebuilds the router.
	recovering atomic.Bool
	// spans is non-nil once EnableSpans armed request tracing (spans.go).
	spans *obs.SpanTracer

	// router is an atomic pointer because journal recovery and a
	// replicated restore swap in a rebuilt router at runtime; read it
	// through rt().
	router atomic.Pointer[shard.Router]
	// snapshotting dedups the asynchronous journal snapshots.
	snapshotting atomic.Bool

	// replica is non-nil once EnableReplication armed the 3-node
	// replicated control plane; replH serves its peer streams and replPeers
	// maps node IDs to base URLs for the follower-redirect Location
	// header. All are written once under mu before the recovering gate
	// drops, so the write gate's unlocked reads are ordered after them.
	replica   *replica.Node
	replH     http.Handler
	replPeers map[string]string
}

// rt returns the admission router. Handlers load it once per request: a
// replicated node may swap in a restored router at any moment, and
// mixing two routers inside one request would cross state generations.
func (s *Server) rt() *shard.Router { return s.router.Load() }

// New returns a Server scheduling onto the whole of net: NewSharded with
// one region.
func New(net *network.Network, opts ...core.Option) *Server {
	s, err := NewSharded(net, 1, opts...)
	if err != nil {
		// One region fails to partition only a network without NCPs,
		// which network.Builder does not build.
		panic(err)
	}
	return s
}

// Metrics returns the server's metrics registry, for callers that want to
// register their own series alongside the scheduler's.
func (s *Server) Metrics() *obs.Registry {
	return s.metrics
}

// Handler returns the HTTP handler implementing the API. Every request is
// counted in sparcle_http_requests_total (labeled by method) and in the
// cumulative total reported by /healthz, and handler panics are converted
// into 500 responses (counted in sparcle_http_panics_total) instead of
// tearing down the connection.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleDebugVars)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /debug/latency", s.handleLatency)
	mux.HandleFunc("GET /network", s.handleNetwork)
	mux.HandleFunc("GET /apps", s.handleListApps)
	mux.HandleFunc("POST /apps", s.handleSubmit)
	mux.HandleFunc("POST /apps/batch", s.handleSubmitBatch)
	mux.HandleFunc("DELETE /apps/{name}", s.handleRemove)
	mux.HandleFunc("POST /apps/{name}/repair", s.handleRepair)
	mux.HandleFunc("POST /fluctuation", s.handleFluctuation)
	// The peers' replication streams. Mounted unconditionally and
	// dispatched lazily: peer URLs are only known once every listener is
	// bound, so EnableReplication runs after Handler during cluster
	// bootstrap. The membership admin routes are more specific than the
	// stream's prefix, so they win dispatch (replica.go).
	mux.HandleFunc("POST /repl/", s.handleRepl)
	mux.HandleFunc("GET /repl/members", s.handleMembersGet)
	mux.HandleFunc("POST /repl/members", s.handleMembersChange)
	return s.middleware(mux)
}

// middleware wraps next with request counting and panic recovery. A
// panicking handler answers 500 with a JSON error body; the panic value is
// not echoed (it may hold internals), only counted and summarized.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The sentinel asks for exactly the abort behaviour.
				panic(rec)
			}
			s.metrics.Counter("sparcle_http_panics_total").Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal server error"})
		}()
		s.requests.Add(1)
		s.metrics.Counter("sparcle_http_requests_total", obs.L("method", r.Method)).Inc()
		if r.Method != http.MethodGet && !strings.HasPrefix(r.URL.Path, "/repl/") {
			// The replication stream is exempt from both gates: it must flow
			// on followers and during recovery or the cluster cannot heal.
			if s.recovering.Load() {
				// Journal recovery is rebuilding the scheduler; nothing may
				// mutate (or journal) until the rebuilt state is live.
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "recovering from journal; retry shortly"})
				return
			}
			if !s.replicaWriteGate(w, r) {
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// healthzResponse is the body of GET /healthz.
type healthzResponse struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Apps          map[string]int `json:"apps"`
	Requests      uint64         `json:"requests"`
	Journal       journalHealth  `json:"journal"`
	// Sharding reports per-shard admissions, lease count and border-link
	// occupancy.
	Sharding shard.Stats `json:"sharding"`
	// GroupCommit reports the commit queue: groups committed, followers
	// coalesced, apps admitted through it.
	GroupCommit core.GroupStats `json:"groupCommit"`
	// Replication is present when -replicate is enabled: this node's
	// role, term, commit index and the current leader.
	Replication *replicationHealth `json:"replication,omitempty"`
}

// journalHealth is the durability section of /healthz: whether a
// write-ahead journal is armed, its fsync policy, the last committed
// record index, how far the log has grown past the newest snapshot, and
// whether recovery is still rebuilding the scheduler.
type journalHealth struct {
	Enabled bool `json:"enabled"`
	// Fsync is the policy spelling ("always" or "never").
	Fsync string `json:"fsync,omitempty"`
	// LastSeq is the sequence number of the last committed record; an
	// operator comparing it across replicas sees which is ahead.
	LastSeq uint64 `json:"lastSeq,omitempty"`
	// SinceSnapshot is the replay bound a crash right now would pay.
	SinceSnapshot int  `json:"sinceSnapshot,omitempty"`
	Recovering    bool `json:"recovering"`
	// RecoverySeconds is the duration of the last completed recovery.
	RecoverySeconds float64 `json:"recoverySeconds,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	rt := s.rt()
	st := rt.Stats()
	gr, be := 0, 0
	for _, sh := range st.Shards {
		gr += sh.GRApps
		be += sh.BEApps
	}
	jh := journalHealth{Recovering: s.recovering.Load()}
	if j != nil {
		jh.Enabled = true
		jh.Fsync = j.FsyncPolicy().String()
		jh.LastSeq = j.LastSeq()
		jh.SinceSnapshot = j.SinceSnapshot()
		jh.RecoverySeconds = s.metrics.Gauge(metricRecovery).Value()
	}
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Apps: map[string]int{
			core.GuaranteedRate.String(): gr,
			core.BestEffort.String():     be,
		},
		Requests:    s.requests.Load(),
		Journal:     jh,
		Sharding:    st,
		GroupCommit: rt.GroupStats(),
		Replication: s.replicationHealth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The registry is concurrency safe on its own: no mu here.
	s.refreshMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	s.refreshMetrics()
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// --- responses ---

type errorResponse struct {
	Error string `json:"error"`
}

type ncpView struct {
	Name     string             `json:"name"`
	Capacity map[string]float64 `json:"capacity,omitempty"`
	FailProb float64            `json:"failProb,omitempty"`
}

type linkView struct {
	Name      string  `json:"name"`
	A         string  `json:"a"`
	B         string  `json:"b"`
	Bandwidth float64 `json:"bandwidth"`
	FailProb  float64 `json:"failProb,omitempty"`
	Directed  bool    `json:"directed,omitempty"`
}

type networkView struct {
	Name  string     `json:"name"`
	NCPs  []ncpView  `json:"ncps"`
	Links []linkView `json:"links"`
}

type pathView struct {
	Rate  float64           `json:"rate"`
	Hosts map[string]string `json:"hosts"`
}

type appView struct {
	Name         string     `json:"name"`
	Class        string     `json:"class"`
	TotalRate    float64    `json:"totalRate"`
	Availability float64    `json:"availability"`
	Paths        []pathView `json:"paths"`
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	view := networkView{Name: s.net.Name()}
	for v := 0; v < s.net.NumNCPs(); v++ {
		ncp := s.net.NCP(network.NCPID(v))
		caps := map[string]float64{}
		for k, a := range ncp.Capacity {
			caps[string(k)] = a
		}
		view.NCPs = append(view.NCPs, ncpView{Name: ncp.Name, Capacity: caps, FailProb: ncp.FailProb})
	}
	for l := 0; l < s.net.NumLinks(); l++ {
		link := s.net.Link(network.LinkID(l))
		view.Links = append(view.Links, linkView{
			Name:      link.Name,
			A:         s.net.NCP(link.A).Name,
			B:         s.net.NCP(link.B).Name,
			Bandwidth: link.Bandwidth,
			FailProb:  link.FailProb,
			Directed:  link.Directed,
		})
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleListApps(w http.ResponseWriter, r *http.Request) {
	apps := []shardAppView{}
	rt := s.rt()
	for i, shardApps := range rt.AppsByShard(nil) {
		netw := rt.Region(i).View.Net
		for _, pa := range shardApps {
			apps = append(apps, shardAppView{appView: appViewOn(netw, pa), Shard: i})
		}
	}
	writeJSON(w, http.StatusOK, apps)
}

// appViewOn renders a placement against the network it was made on: its
// shard's region sub-network, where path hosts are region-local NCP ids.
func appViewOn(netw *network.Network, pa *core.PlacedApp) appView {
	view := appView{
		Name:         pa.App.Name,
		Class:        pa.App.QoS.Class.String(),
		TotalRate:    pa.TotalRate(),
		Availability: pa.Availability,
	}
	for _, path := range pa.Paths {
		hosts := map[string]string{}
		for ct := 0; ct < pa.App.Graph.NumCTs(); ct++ {
			id := taskgraph.CTID(ct)
			hosts[pa.App.Graph.CT(id).Name] = netw.NCP(path.P.Host(id)).Name
		}
		view.Paths = append(view.Paths, pathView{Rate: path.Rate, Hosts: hosts})
	}
	return view
}

// errStatus maps a scheduler or router error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrRejected):
		return http.StatusConflict
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// decodeApp is the front half of POST /apps: decode the spec and build
// it against the parent network, both off every scheduler lock. On
// failure it has answered 400 and returns false.
func (s *Server) decodeApp(w http.ResponseWriter, r *http.Request, root *obs.Span) (core.App, bool) {
	dsp := root.Child("http.decode")
	var spec scenario.AppSpec
	err := readBody(r.Body, func(data []byte) (err error) {
		spec, err = scenario.DecodeApp(data)
		return err
	})
	dsp.End()
	if err != nil {
		root.SetAttr("outcome", "bad-request")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decode app spec: %v", err)})
		return core.App{}, false
	}
	root.SetAttr("app", spec.Name)
	bsp := root.Child("http.build")
	app, err := scenario.BuildApp(spec, s.net)
	bsp.End()
	if err != nil {
		root.SetAttr("outcome", "bad-request")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return core.App{}, false
	}
	return app, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	root := s.spans.Start("http.submit")
	defer root.End()
	app, ok := s.decodeApp(w, r, root)
	if !ok {
		return
	}
	// The router claims the name (a duplicate comes back as ErrRejected)
	// and locks only the shards the app touches.
	rt := s.rt()
	res, err := rt.Submit(app, root)
	if err != nil {
		root.SetAttr("outcome", "rejected")
		writeJSON(w, errStatus(err), errorResponse{Error: err.Error()})
		return
	}
	root.SetInt("shard", int64(res.Shard))
	root.SetAttr("outcome", "admitted")
	writeJSON(w, http.StatusCreated, s.shardView(rt, res))
}

// batchRequest is the body of POST /apps/batch.
type batchRequest struct {
	Apps []scenario.AppSpec `json:"apps"`
}

// batchVerdict is one application's outcome inside a batch response.
type batchVerdict struct {
	Name     string   `json:"name"`
	Admitted bool     `json:"admitted"`
	Error    string   `json:"error,omitempty"`
	App      *appView `json:"app,omitempty"`
}

type batchResponse struct {
	Verdicts []batchVerdict `json:"verdicts"`
	Error    string         `json:"error,omitempty"`
}

// handleSubmitBatch admits K applications as one atomic operation: a
// single allocation solve and a single journal record cover the whole
// batch, which enters the commit queue as one indivisible entry and may
// share its group with concurrent single submits. Per-app failures (bad
// spec, duplicate name, rejection) are verdicts, not HTTP errors; the
// call answers 200 with one verdict per input. Only a durability failure
// (journal append lost) or a whole-batch allocation failure changes the
// status. Atomicity is per shard (docs/http-api.md): each shard's
// intra-region members form that shard's atomic sub-batch and
// cross-region members are admitted individually.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	root := s.spans.Start("http.batch")
	defer root.End()
	dsp := root.Child("http.decode")
	var req batchRequest
	err := decodeStrict(r.Body, &req)
	dsp.End()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decode batch: %v", err)})
		return
	}
	root.SetInt("apps", int64(len(req.Apps)))

	verdicts := make([]batchVerdict, len(req.Apps))
	var apps []core.App
	var appIdx []int
	for i, spec := range req.Apps {
		verdicts[i].Name = spec.Name
		app, berr := scenario.BuildApp(spec, s.net)
		if berr != nil {
			verdicts[i].Error = berr.Error()
			continue
		}
		apps = append(apps, app)
		appIdx = append(appIdx, i)
	}
	rt := s.rt()
	results, err := rt.SubmitBatch(apps, root)
	for j, res := range results {
		v := &verdicts[appIdx[j]]
		if res.Err != nil {
			v.Error = res.Err.Error()
			continue
		}
		v.Admitted = true
		av := s.batchAppView(rt, res.App)
		v.App = &av
	}
	resp := batchResponse{Verdicts: verdicts}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		if errors.Is(err, core.ErrDurability) {
			status = http.StatusInternalServerError
		} else {
			status = http.StatusConflict
		}
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	root := s.spans.Start("http.remove")
	defer root.End()
	root.SetAttr("app", name)
	if err := s.rt().Remove(name, root); err != nil {
		writeJSON(w, errStatus(err), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	root := s.spans.Start("http.repair")
	defer root.End()
	root.SetAttr("app", name)
	rt := s.rt()
	res, err := rt.Repair(name, root)
	if err != nil {
		writeJSON(w, errStatus(err), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.shardView(rt, res))
}

// fluctuationRequest scales element capacities; keys are "ncp:<name>" or
// "link:<name>".
type fluctuationRequest struct {
	Scale map[string]float64 `json:"scale"`
}

type fluctuationResponse struct {
	ViolatedGR []string           `json:"violatedGR"`
	BERates    map[string]float64 `json:"beRates"`
}

func (s *Server) handleFluctuation(w http.ResponseWriter, r *http.Request) {
	root := s.spans.Start("http.fluctuation")
	defer root.End()
	dsp := root.Child("http.decode")
	var req fluctuationRequest
	err := decodeStrict(r.Body, &req)
	dsp.End()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decode fluctuation: %v", err)})
		return
	}
	// Elements are named against the parent network; the router splits
	// the scale into per-region and border-link shares.
	scale := core.ElementScale{}
	for key, factor := range req.Scale {
		elem, err := s.parseElement(key)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		scale[elem] = factor
	}
	rep, err := s.rt().ApplyFluctuation(scale, root)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrDurability) {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	resp := fluctuationResponse{ViolatedGR: rep.ViolatedGR, BERates: rep.BERates}
	if resp.ViolatedGR == nil {
		resp.ViolatedGR = []string{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) parseElement(key string) (placement.Element, error) {
	switch {
	case strings.HasPrefix(key, "ncp:"):
		name := strings.TrimPrefix(key, "ncp:")
		id, ok := s.net.NCPIDByName(name)
		if !ok {
			return 0, fmt.Errorf("unknown NCP %q", name)
		}
		return placement.NCPElement(id), nil
	case strings.HasPrefix(key, "link:"):
		name := strings.TrimPrefix(key, "link:")
		for l := 0; l < s.net.NumLinks(); l++ {
			if s.net.Link(network.LinkID(l)).Name == name {
				return placement.LinkElement(s.net, network.LinkID(l)), nil
			}
		}
		return 0, fmt.Errorf("unknown link %q", name)
	default:
		return 0, fmt.Errorf("element key %q must start with ncp: or link:", key)
	}
}

// decodeBufs pools request-body scratch: under load every admission
// used to grow a fresh decoder buffer to body size; recycling the
// buffer keeps request decode allocation flat regardless of body size.
var decodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeStrict decodes one JSON value from body into v, rejecting
// unknown fields, through a pooled read buffer.
func decodeStrict(body io.Reader, v any) error {
	return readBody(body, func(data []byte) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	})
}

// readBody reads body into a pooled buffer and hands its bytes to
// decode, which must not keep them.
func readBody(body io.Reader, decode func([]byte) error) error {
	buf := decodeBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		decodeBufs.Put(buf)
	}()
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	return decode(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// SubmitAll admits a batch of applications (e.g. a scenario's app list at
// server startup) through the same atomic batch path as POST /apps/batch:
// one allocation solve and one journal record cover the whole load,
// logging each outcome to out. Rejections are reported but do not fail the
// batch; a batch-level error (allocation or durability failure) aborts.
func (s *Server) SubmitAll(apps []core.App, out io.Writer) error {
	results, err := s.rt().SubmitBatch(apps, nil)
	for _, res := range results {
		switch {
		case errors.Is(res.Err, core.ErrRejected):
			fmt.Fprintf(out, "rejected %q: %v\n", res.Name, res.Err)
		case res.Err != nil:
			fmt.Fprintf(out, "failed %q: %v\n", res.Name, res.Err)
		default:
			fmt.Fprintf(out, "admitted %q at %.4f/s\n", res.Name, res.App.TotalRate())
		}
	}
	if err != nil {
		return fmt.Errorf("batch submit: %w", err)
	}
	return nil
}
