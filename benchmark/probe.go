package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"sparcle/internal/alloc"
	"sparcle/internal/avail"
	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/replica"
	"sparcle/internal/scenario"
	"sparcle/internal/shard"
)

// The probes replay what the traced pass recorded — request bodies,
// placements, journal records — against one layer's public functions at a
// time, each call timed on its own, nothing else running. They give the
// [P] per-layer metrics: what a layer costs in isolation, where the spans
// give what it cost inside a request.

// timed returns how long f took.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// probes fills m with every [P] metric of w; layers the workload bypasses
// are left at 0.
func probes(e *env, w *workload, tr *traced, m map[string]float64) error {
	_, netw, err := e.scenarioOf(w)
	if err != nil {
		return err
	}
	ops := tr.ops
	if len(ops) > probeOps {
		ops = ops[:probeOps]
	}
	probeScenario(netw, ops, m)
	if err := probeCore(netw, tr.preload, ops, m); err != nil {
		return err
	}
	if w.Shards > 1 {
		if err := probeShard(netw, w.Shards, tr.preload, ops, m); err != nil {
			return err
		}
	}
	if w.Journal {
		recs, err := probeJournal(e, w, netw, tr.dirs[0], m)
		if err != nil {
			return err
		}
		if w.Nodes > 1 {
			if err := probeReplica(e, w, recs, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeScenario times the request decode the server's handler does (strict
// JSON decode) plus scenario.BuildApp, per recorded admission body.
func probeScenario(netw *network.Network, ops []opRecord, m map[string]float64) {
	var durUS, size []float64
	for _, op := range ops {
		if op.Kind != "admit" {
			continue
		}
		durUS = append(durUS, us(timed(func() {
			var spec scenario.AppSpec
			dec := json.NewDecoder(bytes.NewReader(op.Body))
			dec.DisallowUnknownFields()
			if dec.Decode(&spec) == nil {
				_, _ = scenario.BuildApp(spec, netw) // a generated body always builds
			}
		})))
		size = append(size, float64(len(op.Body)))
	}
	m["scenario.decode_build_us"] = median(durUS)
	m["scenario.body_bytes"] = mean(size)
}

// elementFailProbs maps placement elements to failure probabilities, as
// the scheduler does for its availability analyses.
func elementFailProbs(netw *network.Network) avail.FailProbs {
	fp := avail.FailProbs{}
	for v := 0; v < netw.NumNCPs(); v++ {
		if p := netw.NCP(network.NCPID(v)).FailProb; p > 0 {
			fp[int(placement.NCPElement(network.NCPID(v)))] = p
		}
	}
	for l := 0; l < netw.NumLinks(); l++ {
		if p := netw.Link(network.LinkID(l)).FailProb; p > 0 {
			fp[int(placement.LinkElement(netw, network.LinkID(l)))] = p
		}
	}
	return fp
}

// probeCore replays the operations on a bare core.Scheduler — no HTTP, no
// commit hook, no lock — timing Submit and Remove, and beside them the two
// analyses an admission contains: alloc.Predict over the resident
// best-effort footprints before a BE admission, and avail.MinRateAuto on
// the final path set of each admitted GR application.
func probeCore(netw *network.Network, preload [][]byte, ops []opRecord, m map[string]float64) error {
	sched := core.New(netw, core.WithRandSeed(serverSeed))
	for _, body := range preload {
		app, err := buildApp(body, netw)
		if err != nil {
			return err
		}
		_, _ = sched.Submit(app) // a rejection is a verdict
	}
	fp := elementFailProbs(netw)
	rng := rand.New(rand.NewSource(serverSeed))
	var submitUS, removeUS, predictUS, minrateUS, paths []float64
	for _, op := range ops {
		switch op.Kind {
		case "evict":
			// An application this replay rejected is not there to remove.
			removeUS = append(removeUS, us(timed(func() { _ = sched.Remove(op.Name) })))
		case "admit":
			app, err := buildApp(op.Body, netw)
			if err != nil {
				return err
			}
			if app.QoS.Class == core.BestEffort {
				var fps []alloc.Footprint
				for _, pa := range sched.BEApps() {
					fps = append(fps, alloc.FootprintOf(pa.App.QoS.Priority, pa.Paths))
				}
				caps := sched.BEAvailableCapacities()
				predictUS = append(predictUS, us(timed(func() { alloc.Predict(caps, fps, app.QoS.Priority) })))
			}
			var pa *core.PlacedApp
			submitUS = append(submitUS, us(timed(func() { pa, _ = sched.Submit(app) })))
			if pa != nil && app.QoS.Class == core.GuaranteedRate {
				ap := make([]avail.Path, len(pa.Paths))
				for i, p := range pa.Paths {
					for _, el := range p.P.UsedElements() {
						ap[i].Elements = append(ap[i].Elements, int(el))
					}
					ap[i].Rate = p.Rate
				}
				minrateUS = append(minrateUS, us(timed(func() {
					_, _ = avail.MinRateAuto(ap, fp, app.QoS.MinRate, 100000, rng)
				})))
				paths = append(paths, float64(len(ap)))
			}
		}
	}
	m["core.submit_us"] = median(submitUS)
	m["core.remove_us"] = median(removeUS)
	m["alloc.predict_us"] = median(predictUS)
	m["avail.minrate_us"] = median(minrateUS)
	m["avail.paths_per_gr"] = mean(paths)
	return nil
}

// probeShard replays the admissions on a bare shard.Router and times
// Submit, split by whether the application crossed regions.
func probeShard(netw *network.Network, k int, preload [][]byte, ops []opRecord, m map[string]float64) error {
	rt, err := newRouter(netw, k)
	if err != nil {
		return err
	}
	for _, body := range preload {
		app, err := buildApp(body, netw)
		if err != nil {
			return err
		}
		_, _ = rt.Submit(app, nil)
	}
	var intraUS, crossUS []float64
	for _, op := range ops {
		switch op.Kind {
		case "evict":
			_ = rt.Remove(op.Name, nil)
		case "admit":
			app, err := buildApp(op.Body, netw)
			if err != nil {
				return err
			}
			var res *shard.Result
			d := timed(func() { res, _ = rt.Submit(app, nil) })
			switch {
			case res == nil:
			case res.Cross != nil:
				crossUS = append(crossUS, us(d))
			default:
				intraUS = append(intraUS, us(d))
			}
		}
	}
	m["shard.submit_intra_us"] = median(intraUS)
	m["shard.submit_cross_us"] = median(crossUS)
	return nil
}

// probeJournal replays the records the traced pass wrote: recovery plus
// scheduler rebuild over the whole journal, then append under policy
// "never" and Sync after each append, record by record. It returns the
// payloads the run proposed, for the replica probe.
func probeJournal(e *env, w *workload, netw *network.Network, dir string, m map[string]float64) ([][]byte, error) {
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		return nil, err
	}
	var snap []byte
	var recs []journal.Record
	var payloads [][]byte
	recoverTime := timed(func() {
		if snap, recs, err = j.Recover(); err != nil {
			return
		}
		payloads, err = rebuild(w, netw, snap, recs)
	})
	j.Close()
	if err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	m["journal.recover_ms_per_krec"] = ratio(ms(recoverTime), float64(len(recs))/1000)

	if len(recs) > probeOps {
		recs = recs[:probeOps]
	}
	fresh := func(name string) (*journal.Journal, error) {
		j, err := journal.Open(e.freshDir(w.Name+"-"+name), journal.Options{Fsync: journal.SyncNever})
		if err != nil {
			return nil, err
		}
		if _, _, err := j.Recover(); err != nil {
			j.Close()
			return nil, err
		}
		return j, nil
	}
	var appendUS, fsyncUS, size []float64
	ja, err := fresh("probe-append")
	if err != nil {
		return nil, err
	}
	defer ja.Close()
	js, err := fresh("probe-fsync")
	if err != nil {
		return nil, err
	}
	defer js.Close()
	for _, r := range recs {
		var aerr error
		appendUS = append(appendUS, us(timed(func() { _, aerr = ja.Append(r.Type, r.Data) })))
		if aerr != nil {
			return nil, aerr
		}
		if _, err := js.Append(r.Type, r.Data); err != nil {
			return nil, err
		}
		var serr error
		fsyncUS = append(fsyncUS, us(timed(func() { serr = js.Sync() })))
		if serr != nil {
			return nil, serr
		}
		size = append(size, float64(len(r.Data)+8)) // plus the frame's length and CRC
	}
	m["journal.append_us"] = median(appendUS)
	m["journal.fsync_us"] = median(fsyncUS)
	m["journal.bytes_per_rec"] = mean(size)
	return payloads, nil
}

// rebuild decodes the recovered records and rebuilds the scheduler (or
// router) from them, as the server's recovery does; it returns the
// state-machine payloads in log order.
func rebuild(w *workload, netw *network.Network, snapBytes []byte, recs []journal.Record) ([][]byte, error) {
	var payloads [][]byte
	for _, r := range recs {
		data := []byte(r.Data)
		if w.Nodes > 1 {
			// A replicated journal frames each payload in a log entry;
			// barrier and configuration entries carry none.
			var entry replica.Entry
			if err := json.Unmarshal(r.Data, &entry); err != nil {
				return nil, err
			}
			if len(entry.Data) == 0 {
				continue
			}
			data = entry.Data
		}
		payloads = append(payloads, data)
	}
	opt := core.WithRandSeed(serverSeed)
	if w.Shards > 1 {
		var snap *shard.RouterSnapshot
		if snapBytes != nil {
			snap = &shard.RouterSnapshot{}
			if err := json.Unmarshal(snapBytes, snap); err != nil {
				return nil, err
			}
		}
		envs := make([]*shard.Envelope, len(payloads))
		for i, p := range payloads {
			envs[i] = &shard.Envelope{}
			if err := json.Unmarshal(p, envs[i]); err != nil {
				return nil, err
			}
		}
		_, err := shard.Rebuild(netw, w.Shards, snap, envs,
			func(sub *network.Network, region int, ss *core.Snapshot, rs []*core.Record) (core.Control, error) {
				return core.Rebuild(sub, ss, rs, opt)
			})
		return payloads, err
	}
	var snap *core.Snapshot
	if snapBytes != nil && w.Nodes == 1 {
		snap = &core.Snapshot{}
		if err := json.Unmarshal(snapBytes, snap); err != nil {
			return nil, err
		}
	}
	coreRecs := make([]*core.Record, len(payloads))
	for i, p := range payloads {
		coreRecs[i] = &core.Record{}
		if err := json.Unmarshal(p, coreRecs[i]); err != nil {
			return nil, err
		}
	}
	_, err := core.Rebuild(netw, snap, coreRecs, opt)
	return payloads, err
}

// nopSM is a replicated state machine that holds nothing: the replica
// probe measures the log, not the scheduler.
type nopSM struct{}

func (nopSM) Apply([]byte) error                                { return nil }
func (nopSM) SnapshotWith(write func(state []byte) error) error { return write(nil) }
func (nopSM) Restore([]byte, [][]byte) error                    { return nil }

// probeReplica proposes the run's payloads on a 3-node in-process cluster
// of bare replica.Nodes over loopback HTTP, fsync always, no scheduler:
// against journal.append_us + journal.fsync_us on the same records it is
// the like-for-like replication tax.
func probeReplica(e *env, w *workload, payloads [][]byte, m map[string]float64) error {
	const n = 3
	var lns []net.Listener
	var urls []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var nodes []*replica.Node
	var https []*http.Server
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
		for _, hs := range https {
			hs.Close()
		}
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		j, err := journal.Open(e.freshDir(w.Name+"-probe-repl"), journal.Options{Fsync: journal.SyncAlways})
		if err != nil {
			return err
		}
		peers := map[string]replica.Transport{}
		for k := 0; k < n; k++ {
			if k != i {
				peers[fmt.Sprintf("n%d", k)] = replica.NewHTTPTransport(urls[k], nil)
			}
		}
		node, err := replica.New(replica.Config{
			ID: fmt.Sprintf("n%d", i), Peers: peers, Journal: j, SM: nopSM{},
			SnapshotEvery: -1, Seed: int64(i + 1),
		})
		if err != nil {
			j.Close()
			return err
		}
		nodes = append(nodes, node)
		hs := &http.Server{Handler: node.Handler()}
		https = append(https, hs)
		go hs.Serve(lns[i]) // returns when the deferred Close runs
	}
	for _, node := range nodes {
		if err := node.Start(); err != nil {
			return err
		}
	}
	var leader *replica.Node
	for deadline := time.Now().Add(20 * time.Second); leader == nil; {
		for _, node := range nodes {
			if st := node.Status(); st.Role == "leader" && st.Ready {
				leader = node
			}
		}
		if leader == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica probe: no leader")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(payloads) > probeOps {
		payloads = payloads[:probeOps]
	}
	var proposeUS []float64
	for _, p := range payloads {
		var err error
		proposeUS = append(proposeUS, us(timed(func() { err = leader.Propose(p) })))
		if err != nil {
			return fmt.Errorf("replica probe: %w", err)
		}
	}
	m["replica.propose_us"] = median(proposeUS)
	return nil
}
