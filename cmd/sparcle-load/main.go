// Command sparcle-load is an open-loop load generator for the
// sparcle-server admission path: it offers Poisson arrivals of
// heavy-tailed (bounded-Pareto) linear-pipeline applications to a running
// server, never waiting for responses to schedule the next arrival — so
// an overloaded admission path accumulates visible queueing delay instead
// of silently throttling the offered load — and reports admissions/sec
// plus client-side and per-stage server-side latency quantiles
// (p50/p99/p999) as a JSON benchmark document.
//
// Usage:
//
//	sparcle-load -addr host:port [-rate 50] [-duration 10s] [-seed 1]
//	             [-keep 32] [-max-inflight 256] [-alpha 1.3] [-max-cts 8]
//	             [-out report.json] [-min-admitted 0] [-check-flight]
//
// The generator calibrates CT requirements and TT bits from GET /network
// (a fraction of the median NCP capacity and link bandwidth), keeps at
// most -keep applications resident by withdrawing the oldest after each
// admission, and scrapes GET /debug/latency for the server's span-level
// stage attribution. The report goes to stdout, and to -out when given;
// its config block records the server's shard count, scraped from GET
// /healthz. -min-admitted and -check-flight turn the run into a
// self-validating smoke test for CI (scripts/load_smoke.sh); performance
// is measured by the repository benchmark (bash benchmark/run.sh), not
// by this client.
//
// Against a replicated cluster (sparcle-server -replicate), mutating
// requests retry transient faults with jittered exponential backoff —
// 503s while an election settles, refused connections while a node
// restarts — and follow a follower's 421 redirect to the leader, so a
// leader failover mid-run costs a latency blip instead of an error
// burst.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparcle/internal/obs"
	"sparcle/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sparcle-load:", err)
		os.Exit(1)
	}
}

// netInfo is the slice of GET /network the generator needs.
type netInfo struct {
	Name string `json:"name"`
	NCPs []struct {
		Name     string             `json:"name"`
		Capacity map[string]float64 `json:"capacity"`
		FailProb float64            `json:"failProb"`
	} `json:"ncps"`
	Links []struct {
		Name      string  `json:"name"`
		A         string  `json:"a"`
		B         string  `json:"b"`
		Bandwidth float64 `json:"bandwidth"`
		FailProb  float64 `json:"failProb"`
		Directed  bool    `json:"directed"`
	} `json:"links"`
}

// report is one run's document.
type report struct {
	Config struct {
		Addr        string  `json:"addr"`
		Rate        float64 `json:"rate"`
		DurationSec float64 `json:"durationSeconds"`
		Seed        int64   `json:"seed"`
		Keep        int     `json:"keep"`
		MaxInflight int     `json:"maxInflight"`
		Alpha       float64 `json:"alpha"`
		MaxCTs      int     `json:"maxCTs"`
		Network     string  `json:"network"`
		// Shards is the server's region-shard count, read from
		// /healthz (1 = unsharded).
		Shards int `json:"shards,omitempty"`
	} `json:"config"`
	Client struct {
		Attempted        int       `json:"attempted"`
		Admitted         int       `json:"admitted"`
		Rejected         int       `json:"rejected"`
		Errors           int       `json:"errors"`
		Dropped          int       `json:"dropped"`
		AdmissionsPerSec float64   `json:"admissionsPerSec"`
		Latency          quantiles `json:"latencySeconds"`
	} `json:"client"`
	Server struct {
		SLOBreaches uint64                    `json:"sloBreaches"`
		Stages      map[string]obs.StageStats `json:"stages"`
	} `json:"server"`
}

// quantiles summarizes one latency distribution.
type quantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

func histQuantiles(h *obs.Histogram) quantiles {
	q := quantiles{Count: h.Count()}
	if q.Count > 0 {
		q.Mean = h.Sum() / float64(q.Count)
	}
	q.P50, q.P99, q.P999 = h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999)
	return q
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sparcle-load", flag.ContinueOnError)
	addr := fs.String("addr", "", "server address host:port (required)")
	rate := fs.Float64("rate", 50, "offered arrival rate, applications per second")
	duration := fs.Duration("duration", 10*time.Second, "length of the open-loop run")
	seed := fs.Int64("seed", 1, "workload random seed")
	keep := fs.Int("keep", 32, "max resident applications (oldest withdrawn past this)")
	maxInflight := fs.Int("max-inflight", 256, "max concurrent requests; arrivals beyond it are counted as dropped")
	alpha := fs.Float64("alpha", 1.3, "bounded-Pareto tail index of application sizes")
	maxCTs := fs.Int("max-cts", 8, "largest application pipeline length")
	outFile := fs.String("out", "", "also write the report to this file")
	minAdmitted := fs.Int("min-admitted", 0, "fail unless at least this many admissions succeeded")
	checkFlight := fs.Bool("check-flight", false, "fail unless GET /debug/flight serves a parseable Chrome trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return errors.New("missing -addr")
	}
	base := "http://" + *addr

	info, err := fetchNetwork(base)
	if err != nil {
		return err
	}
	gen, err := newGenerator(info, *alpha, *maxCTs, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	var rep report
	rep.Config.Addr = *addr
	rep.Config.Rate = *rate
	rep.Config.DurationSec = duration.Seconds()
	rep.Config.Seed = *seed
	rep.Config.Keep = *keep
	rep.Config.MaxInflight = *maxInflight
	rep.Config.Alpha = *alpha
	rep.Config.MaxCTs = *maxCTs
	rep.Config.Network = info.Name
	rep.Config.Shards = fetchShards(base)

	lat := obs.NewRegistry().Histogram("load_latency_seconds", obs.SpanBuckets)
	arrivals, err := workload.NewPoisson(*rate, rand.New(rand.NewSource(*seed+1)))
	if err != nil {
		return err
	}

	var (
		mu                                sync.Mutex
		resident                          []string
		admitted, rejected, errs, dropped int
	)
	client := &http.Client{Timeout: 30 * time.Second}
	tgt := newTarget(base)
	sem := make(chan struct{}, *maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	next := time.Duration(0)
	attempted := 0
	for {
		next += arrivals.Next()
		if next > *duration {
			break
		}
		// Open loop: sleep until the scheduled arrival regardless of how
		// many requests are still in flight.
		if d := start.Add(next).Sub(time.Now()); d > 0 {
			time.Sleep(d)
		}
		attempted++
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		spec, name := gen.nextApp(attempted)
		scheduled := start.Add(next)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			status, err := post(client, tgt, "/apps", spec)
			// Latency from the *scheduled* arrival, so local queueing
			// (inflight contention) is charged to the system under test.
			lat.Observe(time.Since(scheduled).Seconds())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil || status >= 500:
				errs++
			case status == http.StatusCreated:
				admitted++
				resident = append(resident, name)
				if len(resident) > *keep {
					oldest := resident[0]
					resident = resident[1:]
					go func() {
						do(client, tgt, http.MethodDelete, "/apps/"+oldest, nil)
					}()
				}
			default:
				rejected++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep.Client.Attempted = attempted
	rep.Client.Admitted = admitted
	rep.Client.Rejected = rejected
	rep.Client.Errors = errs
	rep.Client.Dropped = dropped
	rep.Client.AdmissionsPerSec = float64(admitted) / elapsed.Seconds()
	rep.Client.Latency = histQuantiles(lat)

	// Server-side stage attribution, when the server has spans armed.
	if body, err := get(base + "/debug/latency"); err == nil {
		_ = json.Unmarshal(body, &rep.Server)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outFile != "" {
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
	}
	out.Write(data)
	printSummary(out, &rep)

	if *checkFlight {
		if err := verifyFlight(base); err != nil {
			return err
		}
		fmt.Fprintln(out, "flight check: ok")
	}
	if admitted < *minAdmitted {
		return fmt.Errorf("admitted %d < required %d", admitted, *minAdmitted)
	}
	return nil
}

// fetchShards reads the server's region-shard count from /healthz
// (1 when the sharding section is absent or unreadable).
func fetchShards(base string) int {
	body, err := get(base + "/healthz")
	if err != nil {
		return 1
	}
	var hz struct {
		Sharding *struct {
			Shards []json.RawMessage `json:"shards"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.Sharding == nil || len(hz.Sharding.Shards) == 0 {
		return 1
	}
	return len(hz.Sharding.Shards)
}

// printSummary writes the human-readable one-screen digest.
func printSummary(out io.Writer, rep *report) {
	c := rep.Client
	fmt.Fprintf(out, "offered %.1f/s for %.1fs: %d attempted, %d admitted (%.2f/s), %d rejected, %d errors, %d dropped\n",
		rep.Config.Rate, rep.Config.DurationSec, c.Attempted, c.Admitted, c.AdmissionsPerSec, c.Rejected, c.Errors, c.Dropped)
	fmt.Fprintf(out, "client latency p50=%.4fs p99=%.4fs p999=%.4fs\n", c.Latency.P50, c.Latency.P99, c.Latency.P999)
	if len(rep.Server.Stages) > 0 {
		names := make([]string, 0, len(rep.Server.Stages))
		for n := range rep.Server.Stages {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := rep.Server.Stages[n]
			fmt.Fprintf(out, "stage %-16s n=%-6d p50=%.6fs p99=%.6fs p999=%.6fs\n", n, s.Count, s.P50, s.P99, s.P999)
		}
	}
}

// generator builds random linear-pipeline app specs sized by a bounded
// Pareto, calibrated against the target network's capacities.
type generator struct {
	rng      *rand.Rand
	hosts    []string // pin candidates (every NCP)
	resource string   // the resource kind work CTs request
	reqScale float64  // median capacity fraction per requirement unit
	bitScale float64
	alpha    float64
	maxCTs   int
}

func newGenerator(info *netInfo, alpha float64, maxCTs int, rng *rand.Rand) (*generator, error) {
	if len(info.NCPs) == 0 || len(info.Links) == 0 {
		return nil, errors.New("network has no NCPs or links")
	}
	g := &generator{rng: rng, alpha: alpha, maxCTs: maxCTs}
	var caps []float64
	for _, n := range info.NCPs {
		g.hosts = append(g.hosts, n.Name)
		for kind, c := range n.Capacity {
			if g.resource == "" {
				g.resource = kind
			}
			if kind == g.resource && c > 0 {
				caps = append(caps, c)
			}
		}
	}
	if g.resource == "" || len(caps) == 0 {
		return nil, errors.New("no NCP advertises a positive capacity")
	}
	var bws []float64
	for _, l := range info.Links {
		if l.Bandwidth > 0 {
			bws = append(bws, l.Bandwidth)
		}
	}
	if len(bws) == 0 {
		return nil, errors.New("no link advertises positive bandwidth")
	}
	sort.Float64s(caps)
	sort.Float64s(bws)
	// A size-1 app asks for ~2% of a median NCP / median link, so the
	// heavy tail (up to ~50x) produces occasional whales that stress the
	// admission control without starving it outright.
	g.reqScale = caps[len(caps)/2] / 50
	g.bitScale = bws[len(bws)/2] / 50
	return g, nil
}

// nextApp renders one random app spec and returns it with its name.
func (g *generator) nextApp(n int) ([]byte, string) {
	name := fmt.Sprintf("load-%d", n)
	size := workload.BoundedPareto(g.rng, g.alpha, 1, float64(g.maxCTs))
	cts := int(size + 0.5)
	if cts < 1 {
		cts = 1
	}
	src := g.hosts[g.rng.Intn(len(g.hosts))]
	snk := g.hosts[g.rng.Intn(len(g.hosts))]

	type ctSpec struct {
		Name string             `json:"name"`
		Req  map[string]float64 `json:"req,omitempty"`
		Host string             `json:"host,omitempty"`
	}
	type ttSpec struct {
		From string  `json:"from"`
		To   string  `json:"to"`
		Bits float64 `json:"bits"`
	}
	spec := struct {
		Name string   `json:"name"`
		CTs  []ctSpec `json:"cts"`
		TTs  []ttSpec `json:"tts"`
		QoS  struct {
			Class    string  `json:"class"`
			Priority float64 `json:"priority"`
		} `json:"qos"`
	}{Name: name}
	spec.QoS.Class = "best-effort"
	spec.QoS.Priority = workload.BoundedPareto(g.rng, g.alpha, 1, 10)

	spec.CTs = append(spec.CTs, ctSpec{Name: "in", Host: src})
	prev := "in"
	for i := 0; i < cts; i++ {
		ct := fmt.Sprintf("w%d", i)
		req := g.reqScale * workload.BoundedPareto(g.rng, g.alpha, 1, 50)
		spec.CTs = append(spec.CTs, ctSpec{Name: ct, Req: map[string]float64{g.resource: req}})
		spec.TTs = append(spec.TTs, ttSpec{From: prev, To: ct, Bits: g.bitScale * workload.BoundedPareto(g.rng, g.alpha, 1, 50)})
		prev = ct
	}
	spec.CTs = append(spec.CTs, ctSpec{Name: "out", Host: snk})
	spec.TTs = append(spec.TTs, ttSpec{From: prev, To: "out", Bits: g.bitScale * workload.BoundedPareto(g.rng, g.alpha, 1, 50)})

	data, _ := json.Marshal(spec)
	return data, name
}

func fetchNetwork(base string) (*netInfo, error) {
	body, err := get(base + "/network")
	if err != nil {
		return nil, fmt.Errorf("fetch network: %w", err)
	}
	var info netInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("decode network: %w", err)
	}
	return &info, nil
}

// verifyFlight fetches the flight recorder and checks it parses as a
// non-empty Chrome trace-event array.
func verifyFlight(base string) error {
	body, err := get(base + "/debug/flight")
	if err != nil {
		return fmt.Errorf("flight check: %w", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		return fmt.Errorf("flight check: not a chrome trace: %w", err)
	}
	if len(events) == 0 {
		return errors.New("flight check: trace has no events")
	}
	for _, e := range events {
		if e["ph"] != "X" {
			return fmt.Errorf("flight check: unexpected event %v", e)
		}
	}
	return nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes(), nil
}

// target is the base URL mutating requests go to. Against a replicated
// cluster it follows 421 leader redirects, so after one redirect every
// worker goes straight to the leader instead of paying a bounce per
// request.
type target struct {
	mu   sync.Mutex
	base string
}

func newTarget(base string) *target { return &target{base: base} }

func (t *target) get() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base
}

func (t *target) set(base string) {
	t.mu.Lock()
	t.base = base
	t.mu.Unlock()
}

const (
	// maxAttempts bounds each request: transient faults (503, refused
	// connections, leader redirects) are retried, anything else returns
	// immediately.
	maxAttempts = 5
	// baseBackoff is the first retry delay; it doubles per attempt with
	// full jitter so synchronized workers fan back out.
	baseBackoff = 50 * time.Millisecond
	// maxBackoff caps the doubling: a long election or restart should
	// not push sleeps past a couple of seconds per attempt.
	maxBackoff = 2 * time.Second
)

// post sends body to path on the target with bounded retries: 503s and
// connection errors back off and retry (a replicated cluster answers 503
// while an election settles), and a 421 re-points the target at the
// leader named in the response before retrying. The final status (or the
// last connection error) is returned after at most maxAttempts tries.
func post(client *http.Client, tgt *target, path string, body []byte) (int, error) {
	return do(client, tgt, http.MethodPost, path, body)
}

func do(client *http.Client, tgt *target, method, path string, body []byte) (int, error) {
	backoff := baseBackoff
	var retryAfter time.Duration
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if retryAfter > 0 {
				// The server told us when to come back; believe it over
				// our own schedule (still capped).
				time.Sleep(min(retryAfter, maxBackoff))
			} else {
				// Full jitter: anywhere in (0, backoff], then double,
				// capped so a long outage doesn't strand the worker.
				time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond)
			}
			retryAfter = 0
			backoff = min(backoff*2, maxBackoff)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, tgt.get()+path, rd)
		if err != nil {
			return 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			// Connection refused/reset: the node may be mid-restart or
			// mid-failover; retry after backoff.
			lastErr = err
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusMisdirectedRequest:
			var redir struct {
				URL string `json:"leaderUrl"`
			}
			if json.Unmarshal(data, &redir) == nil && redir.URL != "" {
				tgt.set(strings.TrimSuffix(redir.URL, "/"))
			}
			lastErr = fmt.Errorf("%s %s: redirected off a follower", method, path)
		case http.StatusServiceUnavailable:
			// Honor Retry-After (integer seconds) when the server sent
			// one — admission gates use it to pace retries.
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			lastErr = fmt.Errorf("%s %s: 503 service unavailable", method, path)
		default:
			return resp.StatusCode, nil
		}
	}
	return 0, lastErr
}
