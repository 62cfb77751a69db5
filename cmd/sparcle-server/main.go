// Command sparcle-server runs the SPARCLE scheduler as a long-lived HTTP
// control plane over the network of a scenario file: applications are
// then submitted, inspected, repaired and withdrawn through the JSON API
// of internal/server, and capacity fluctuations can be pushed in by
// monitoring.
//
// Usage:
//
//	sparcle-server -f scenario.json [-addr :8080] [-shards N] [-submit]
//	               [-journal dir] [-trace spans.jsonl] [-flight 256]
//	               [-pprof] [-v]
//
// The network is partitioned into -shards N regions (default 1), each
// running its own scheduler behind one admission router: applications
// pinned inside one region admit under only that region's lock, and
// applications spanning two adjacent regions place against a border-link
// capacity lease (see docs/http-api.md, "Sharded deployments"). With
// -shards 1 the one region is the whole network, and its placements are
// byte-identical to a lone scheduler's.
// Every intra-region admission goes through its region's group-commit
// queue: submits that arrive while a commit is in flight share one solve
// and one journal record, and a lone submit commits at once as a group of
// one (-group-commit is accepted and ignored). Each half of a
// cross-region admission is a batch of one under both regions' locks.
// With -submit, the scenario's applications are admitted at startup. With
// -journal, every mutating operation is committed to a write-ahead
// journal in the given directory before it is acknowledged, and a restart
// recovers the exact pre-crash scheduler from snapshot + replay (see
// docs/durability.md). With -replicate ID -peers "a=url,b=url,c=url"
// (requires -journal), the node joins a replicated cluster: the leader
// streams journal records to its followers and acks a write only after
// a quorum holds it, followers keep a hot scheduler by applying the
// committed stream continuously, and a write sent to a follower answers
// 421 with a Location header pointing at the leader (see
// docs/replication.md). With -join URL (requires -replicate; -peers then
// only needs this node's own id=url), the node boots with an empty
// membership and registers itself with the live cluster at URL: the
// leader admits it as a non-voting learner, catches it up — via snapshot
// install when it is far behind — and promotes it to voter; POST
// /repl/members also adds, promotes and removes members directly. With
// -trace FILE or -flight N, every mutating request is traced as a
// hierarchical span tree that times each admission-path stage and
// carries the scheduler's decisions — the admission verdict and reason,
// Algorithm 2's γ ranking, the routes, the solve: -trace streams every
// finished span to FILE as JSON Lines, and the in-memory flight recorder
// keeps the last N traces (64 with -trace alone) for GET /debug/flight
// (see docs/observability.md). Tracing is off, and free, by default.
// With -pprof, the net/http/pprof profiling handlers are mounted under
// /debug/pprof/. With -v, scheduler activity is logged to stderr.
//
// API summary (see internal/server for details):
//
//	GET    /healthz               liveness, uptime, admission and journal status
//	GET    /metrics               Prometheus text exposition
//	GET    /debug/vars            JSON metrics snapshot
//	GET    /debug/flight          flight-recorder ring as a Chrome trace (-trace/-flight)
//	GET    /debug/latency         per-stage latency quantiles from spans
//	GET    /network
//	GET    /apps
//	POST   /apps                  body: one scenario app spec
//	POST   /apps/batch            body: {"apps": [spec, ...]}, one atomic batch
//	DELETE /apps/{name}
//	POST   /apps/{name}/repair
//	POST   /fluctuation           body: {"scale": {"ncp:<name>": 0.5}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/obs"
	"sparcle/internal/scenario"
	"sparcle/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sparcle-server:", err)
		os.Exit(1)
	}
}

// parsePeers decodes the -peers flag: comma-separated id=url pairs.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, errors.New("-replicate requires -peers (id=url,id=url,...)")
	}
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want id=url", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate -peers node ID %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

// registerWithCluster asks a live cluster node to admit this one as a
// new member, retrying with capped backoff and following leader
// redirects until the add is acknowledged (idempotent on the leader, so
// retries across leader changes are safe) or ctx ends.
func registerWithCluster(ctx context.Context, joinURL, selfID, selfURL string) {
	body := fmt.Sprintf(`{"action":"add","id":%q,"url":%q}`, selfID, selfURL)
	target := strings.TrimSuffix(joinURL, "/") + "/repl/members"
	backoff := 200 * time.Millisecond
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, strings.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sparcle-server: join request: %v\n", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				fmt.Fprintf(os.Stderr, "sparcle-server: joined cluster as %q via %s\n", selfID, target)
				return
			case http.StatusMisdirectedRequest:
				// Follow the redirect to the leader and retry immediately.
				if loc := resp.Header.Get("Location"); loc != "" {
					target = loc
					continue
				}
				var redir struct {
					URL string `json:"leaderUrl"`
				}
				if json.Unmarshal(rb, &redir) == nil && redir.URL != "" {
					target = strings.TrimSuffix(redir.URL, "/") + "/repl/members"
					continue
				}
			default:
				fmt.Fprintf(os.Stderr, "sparcle-server: join via %s: %d %s (retrying)\n", target, resp.StatusCode, strings.TrimSpace(string(rb)))
			}
		} else if ctx.Err() != nil {
			return
		} else {
			fmt.Fprintf(os.Stderr, "sparcle-server: join via %s: %v (retrying)\n", target, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

// run starts the server; if ready is non-nil the bound address is sent on
// it once listening (used by tests).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("sparcle-server", flag.ContinueOnError)
	file := fs.String("f", "", "scenario JSON file defining the network (required)")
	addr := fs.String("addr", ":8080", "listen address")
	submit := fs.Bool("submit", false, "admit the scenario's applications at startup")
	seed := fs.Int64("seed", 1, "seed of the replica election-timeout jitter, uniform below one timeout; a booting node's first deadline is that jitter alone (with -replicate)")
	withPprof := fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	verbose := fs.Bool("v", false, "log scheduler activity to stderr")
	shards := fs.Int("shards", 1, "region shards: partition the network into N regions, one scheduler each, behind an admission router (1 = single scheduler)")
	journalDir := fs.String("journal", "", "directory for the write-ahead operation journal (empty = not durable)")
	journalFsync := fs.String("journal-fsync", "always", "journal fsync policy: always (every acknowledged operation is on stable storage) or never (left to the page cache)")
	snapshotEvery := fs.Int("snapshot-every", 256, "journal records between snapshots, with -journal or -replicate (<= 0 = none, so recovery replays the whole log)")
	trace := fs.String("trace", "", "arm span tracing and stream every finished span, decisions included, to this JSONL file")
	flightSize := fs.Int("flight", 0, "arm span tracing and keep the last N traces for /debug/flight (0 = off, or 64 with -trace)")
	runtimeMetrics := fs.Duration("runtime-metrics", 10*time.Second, "Go runtime sampling period for /metrics (0 = off)")
	fs.Bool("group-commit", false, "accepted and ignored: every admission goes through the group-commit queue (one BE solve and one journal fsync per group of concurrent submits)")
	replicate := fs.String("replicate", "", "node ID: run as one member of a replicated cluster (requires -journal and -peers)")
	peersFlag := fs.String("peers", "", "comma-separated id=url pairs naming every cluster node, this one included (with -replicate)")
	replHeartbeat := fs.Duration("repl-heartbeat", 100*time.Millisecond, "leader heartbeat period (with -replicate)")
	replElection := fs.Duration("repl-election-timeout", 0, "follower election timeout, plus jitter; at boot the jitter alone (0 = 10x heartbeat; with -replicate)")
	joinURL := fs.String("join", "", "base URL of any live cluster node: join its cluster as a new member instead of bootstrapping (with -replicate; -peers then only needs this node's own id=url)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return errors.New("missing -f scenario file")
	}
	if *joinURL != "" && *replicate == "" {
		return errors.New("-join requires -replicate")
	}
	var peers map[string]string
	if *replicate != "" {
		if *journalDir == "" {
			return errors.New("-replicate requires -journal")
		}
		var err error
		if peers, err = parsePeers(*peersFlag); err != nil {
			return err
		}
		if _, ok := peers[*replicate]; !ok {
			return fmt.Errorf("-peers must include this node's ID %q", *replicate)
		}
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	f, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	netw, err := f.BuildNetwork()
	if err != nil {
		return err
	}

	var opts []core.Option
	if *verbose {
		opts = append(opts, core.WithLogger(obs.NewLogger(os.Stderr, slog.LevelDebug)))
	}
	srv, err := server.NewSharded(netw, *shards, opts...)
	if err != nil {
		return err
	}
	if *shards > 1 {
		part := srv.Router().Partitioning()
		fmt.Fprintf(out, "sparcle-server sharded: %d regions, %d border links\n",
			len(part.Regions), len(part.Border))
	}
	if *trace != "" || *flightSize > 0 {
		if *flightSize <= 0 {
			*flightSize = 64
		}
		sopt := obs.SpanOptions{Metrics: srv.Metrics(), FlightSize: *flightSize}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			defer f.Close()
			sopt.JSONL = f
		}
		st := obs.NewSpanTracer(sopt)
		// Close flushes the JSONL stream, so it must run before the
		// deferred file close above (LIFO order guarantees that).
		defer st.Close()
		srv.EnableSpans(st)
		fmt.Fprintf(out, "sparcle-server span tracing armed (flight=%d)\n", *flightSize)
	}
	if *runtimeMetrics > 0 {
		stop := obs.StartRuntimeSampler(srv.Metrics(), *runtimeMetrics)
		defer stop()
	}
	if *journalDir != "" {
		policy, err := journal.ParsePolicy(*journalFsync)
		if err != nil {
			return err
		}
		jopt := journal.Options{Fsync: policy}
		if *replicate != "" {
			if err := srv.EnableReplication(server.ReplicationConfig{
				NodeID:          *replicate,
				Peers:           peers,
				Dir:             *journalDir,
				Journal:         jopt,
				SnapshotEvery:   *snapshotEvery,
				Heartbeat:       *replHeartbeat,
				ElectionTimeout: *replElection,
				Seed:            *seed,
				Join:            *joinURL != "",
			}); err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(out, "sparcle-server replicating as %q with %d peers, journal at %s (fsync=%s), recovered to seq %d\n",
				*replicate, len(peers)-1, *journalDir, policy, srv.Journal().LastSeq())
		} else {
			if err := srv.EnableJournal(*journalDir, jopt, *snapshotEvery); err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(out, "sparcle-server journal at %s (fsync=%s), recovered to seq %d\n",
				*journalDir, policy, srv.Journal().LastSeq())
		}
	}
	if *submit {
		apps, err := f.BuildApps(netw)
		if err != nil {
			return err
		}
		if err := srv.SubmitAll(apps, out); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sparcle-server listening on %s (%s, %d NCPs, %d links)\n",
		ln.Addr(), netw.Name(), netw.NumNCPs(), netw.NumLinks())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	handler := srv.Handler()
	if *withPprof {
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
	}
	// Slow-client protection: bound header and body reads and reap idle
	// keep-alive connections. No WriteTimeout — /debug/pprof/profile
	// legitimately streams for 30s.
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Drain on SIGINT/SIGTERM: stop accepting, finish in-flight requests,
	// then exit cleanly so orchestrators see a graceful stop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if *joinURL != "" {
		// The listener is bound, so the cluster can reach us back: ask any
		// live node to admit this one. The leader adds us as a learner,
		// streams us the log (via snapshot when we are far behind) and
		// auto-promotes us to voter once we are caught up.
		go registerWithCluster(ctx, *joinURL, *replicate, peers[*replicate])
	}
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		stop()
		fmt.Fprintln(out, "sparcle-server: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
