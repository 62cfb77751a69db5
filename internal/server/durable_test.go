package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/scenario"
)

// testNet builds the small two-branch network used across server tests.
func testNet(t *testing.T) *network.Network {
	t.Helper()
	b := network.NewBuilder("test")
	src := b.AddNCP("src", nil, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 80}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("s1", src, m1, 1e6, 0)
	b.AddLink("s2", src, m2, 1e6, 0)
	b.AddLink("k1", m1, snk, 1e6, 0)
	b.AddLink("k2", m2, snk, 1e6, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// journaledServer starts an httptest server whose scheduler journals to
// dir with fsync-per-append, so abandoning it (no Close) models a crash.
func journaledServer(t *testing.T, net *network.Network, dir string, opts ...core.Option) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(net, opts...)
	if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatalf("EnableJournal: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getApps(t *testing.T, url string) string {
	t.Helper()
	resp, body := do(t, http.MethodGet, url+"/apps", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /apps: %d %s", resp.StatusCode, body)
	}
	return string(body)
}

// TestServerRecoversAfterCrash drives mutations over HTTP against a
// journaled server, abandons it without shutdown, starts a second server
// over the same journal directory, and asserts GET /apps is byte-equal.
func TestServerRecoversAfterCrash(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	srv1, ts1 := journaledServer(t, net, dir)

	for i := 0; i < 4; i++ {
		body := appJSON(fmt.Sprintf("app-%d", i), "best-effort", `, "priority": 1`)
		if resp, b := do(t, http.MethodPost, ts1.URL+"/apps", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit app-%d: %d %s", i, resp.StatusCode, b)
		}
	}
	if resp, b := do(t, http.MethodDelete, ts1.URL+"/apps/app-1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: %d %s", resp.StatusCode, b)
	}
	if resp, b := do(t, http.MethodPost, ts1.URL+"/fluctuation", `{"scale": {"ncp:m2": 0.5}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("fluctuation: %d %s", resp.StatusCode, b)
	}
	want := getApps(t, ts1.URL)
	ts1.Close()
	// No srv1.Close(): the journal was fsynced per append, the process
	// "crashed" with the journal still open.
	_ = srv1

	srv2, ts2 := journaledServer(t, net, dir)
	if got := getApps(t, ts2.URL); got != want {
		t.Fatalf("recovered /apps differs\nbefore crash: %s\nafter:        %s", want, got)
	}
	// 4 submits + 1 remove + 1 fluctuation.
	if srv2.Journal().LastSeq() != 6 {
		t.Fatalf("recovered journal at seq %d, want 6", srv2.Journal().LastSeq())
	}
	// The recovered server keeps working and journaling.
	if resp, b := do(t, http.MethodPost, ts2.URL+"/apps", appJSON("post-crash", "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-recovery submit: %d %s", resp.StatusCode, b)
	}
	if srv2.Journal().LastSeq() != 7 {
		t.Fatalf("post-recovery journal at seq %d, want 7", srv2.Journal().LastSeq())
	}
}

// TestServerBatchEndpoint submits a batch mixing good specs, a bad spec,
// and a duplicate name: one HTTP call, per-app verdicts, one journal
// record.
func TestServerBatchEndpoint(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	srv, ts := journaledServer(t, net, dir)

	batch := fmt.Sprintf(`{"apps": [%s, %s, %s, %s]}`,
		appJSON("b0", "best-effort", `, "priority": 1`),
		appJSON("b1", "best-effort", `, "priority": 2`),
		appJSON("b1", "best-effort", `, "priority": 1`), // duplicate name
		appJSON("b3", "no-such-class", ""))              // bad spec
	resp, body := do(t, http.MethodPost, ts.URL+"/apps/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Verdicts) != 4 {
		t.Fatalf("verdicts = %+v", br.Verdicts)
	}
	if !br.Verdicts[0].Admitted || !br.Verdicts[1].Admitted {
		t.Fatalf("good specs not admitted: %+v", br.Verdicts)
	}
	if br.Verdicts[2].Admitted || br.Verdicts[2].Error == "" {
		t.Fatalf("duplicate name admitted: %+v", br.Verdicts[2])
	}
	if br.Verdicts[3].Admitted || br.Verdicts[3].Error == "" {
		t.Fatalf("bad spec admitted: %+v", br.Verdicts[3])
	}
	if br.Verdicts[0].App == nil || br.Verdicts[0].App.TotalRate <= 0 {
		t.Fatalf("admitted verdict lacks app view: %+v", br.Verdicts[0])
	}
	if srv.Journal().LastSeq() != 1 {
		t.Fatalf("batch journaled %d records, want exactly 1", srv.Journal().LastSeq())
	}
}

// TestServerRecoveringGate: while recovery runs, mutating routes answer
// 503 with Retry-After and reads stay available.
func TestServerRecoveringGate(t *testing.T) {
	srv := New(testNet(t))
	srv.recovering.Store(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, body := do(t, http.MethodPost, ts.URL+"/apps", appJSON("x", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while recovering: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/apps/x", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE while recovering: %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET while recovering: %d", resp.StatusCode)
	}

	srv.recovering.Store(false)
	if resp, _ := do(t, http.MethodPost, ts.URL+"/apps", appJSON("x", "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST after recovery: %d", resp.StatusCode)
	}
}

// TestSubmitAllSharesBatchPath: the CLI bulk-load helper journals one
// atomic batch record, exactly like POST /apps/batch.
func TestSubmitAllSharesBatchPath(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	srv, _ := journaledServer(t, net, dir)

	var apps []core.App
	for i := 0; i < 3; i++ {
		var spec scenario.AppSpec
		if err := json.Unmarshal([]byte(appJSON(fmt.Sprintf("cli-%d", i), "best-effort", `, "priority": 1`)), &spec); err != nil {
			t.Fatal(err)
		}
		app, err := scenario.BuildApp(spec, net)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	if err := srv.SubmitAll(apps, io.Discard); err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	if srv.Journal().LastSeq() != 1 {
		t.Fatalf("SubmitAll journaled %d records, want exactly 1", srv.Journal().LastSeq())
	}
	n := len(srv.Router().Shard(0).BEApps())
	if n != 3 {
		t.Fatalf("SubmitAll admitted %d apps, want 3", n)
	}
}

// TestServerPeriodicSnapshot: with snapshotEvery=2, mutations trigger
// snapshots and a restart replays only the bounded tail.
func TestServerPeriodicSnapshot(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	srv := New(net)
	if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 2); err != nil {
		t.Fatalf("EnableJournal: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 5; i++ {
		if resp, b := do(t, http.MethodPost, ts.URL+"/apps", appJSON(fmt.Sprintf("s-%d", i), "best-effort", `, "priority": 1`)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, b)
		}
	}
	if since := srv.Journal().SinceSnapshot(); since >= 5 {
		t.Fatalf("no periodic snapshot was written: %d records since last", since)
	}
	want := getApps(t, ts.URL)
	ts.Close()

	srv2, ts2 := journaledServer(t, net, dir)
	defer srv2.Close()
	if got := getApps(t, ts2.URL); got != want {
		t.Fatalf("snapshot+tail recovery diverged\nwant: %s\ngot:  %s", want, got)
	}
}

// TestServerRecoversAdmitRecords: a journal of per-submit admit records —
// what core.Scheduler.Submit's commit hook writes, and what a server
// wrote before every admission went through the commit queue — is
// recovered by EnableJournal to the scheduler that wrote it. The log also
// holds an empty batch record, which a retried POST used to leave behind.
func TestServerRecoversAdmitRecords(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	sched := core.New(net)
	genesis, err := sched.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(genesis); err != nil {
		t.Fatal(err)
	}
	sched.SetCommitHook(func(rec *core.Record) error {
		_, err := j.Append("op", rec)
		return err
	})
	for i, qos := range []string{
		`"class": "best-effort", "priority": 1`,
		`"class": "guaranteed-rate", "minRate": 0.1, "minRateAvailability": 0.5`,
		`"class": "best-effort", "priority": 2`,
		`"class": "guaranteed-rate", "minRate": 1e9, "minRateAvailability": 0.9`, // rejected: journaled all the same
	} {
		var spec scenario.AppSpec
		if err := json.Unmarshal([]byte(appJSON(fmt.Sprintf("u-%d", i), "", "")), &spec); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte("{"+qos+"}"), &spec.QoS); err != nil {
			t.Fatal(err)
		}
		app, err := scenario.BuildApp(spec, net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Submit(app); err != nil && i != 3 {
			t.Fatalf("submit u-%d: %v", i, err)
		}
	}
	if err := sched.Remove("u-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.SubmitBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := []appView{}
	for _, pa := range append(sched.GRApps(), sched.BEApps()...) {
		want = append(want, appViewOn(net, pa))
	}

	srv, ts := journaledServer(t, net, dir)
	defer srv.Close()
	if seq := srv.Journal().LastSeq(); seq != 6 {
		t.Fatalf("recovered to seq %d, want the 4 admits + remove + empty batch = 6", seq)
	}
	var got []appView
	if err := json.Unmarshal([]byte(getApps(t, ts.URL)), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Fatalf("recovered listing differs from the writer's\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestNothingToAdmitCommitsNothing: a retried POST /apps, and a batch in
// which no spec survives build and name checks, answer as before but cost
// no solve and no journal record — under -journal-fsync always that was
// an fsync, under -replicate a quorum round.
func TestNothingToAdmitCommitsNothing(t *testing.T) {
	srv, ts := journaledServer(t, testNet(t), t.TempDir())
	defer srv.Close()
	spec := appJSON("dup", "best-effort", `, "priority": 1`)
	if resp, body := do(t, http.MethodPost, ts.URL+"/apps", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	seq := srv.Journal().LastSeq()
	appends := srv.Metrics().Counter("sparcle_journal_appends_total").Value()
	solves := srv.Metrics().Counter("sparcle_alloc_solves_total").Value()

	if resp, body := do(t, http.MethodPost, ts.URL+"/apps", spec); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit: %d %s, want 409", resp.StatusCode, body)
	}
	batch := fmt.Sprintf(`{"apps": [%s, %s]}`, spec, appJSON("ghost", "best-effort", `, "priority": -1`))
	resp, body := do(t, http.MethodPost, ts.URL+"/apps/batch", batch)
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Verdicts) != 2 ||
		br.Verdicts[0].Admitted || br.Verdicts[0].Error == "" || br.Verdicts[1].Admitted || br.Verdicts[1].Error == "" {
		t.Fatalf("batch of a duplicate and a bad spec: %d %s", resp.StatusCode, body)
	}

	if got := srv.Journal().LastSeq(); got != seq {
		t.Fatalf("journal moved %d -> %d for operations that admitted nothing", seq, got)
	}
	if got := srv.Metrics().Counter("sparcle_journal_appends_total").Value(); got != appends {
		t.Fatalf("sparcle_journal_appends_total moved %v -> %v", appends, got)
	}
	if got := srv.Metrics().Counter("sparcle_alloc_solves_total").Value(); got != solves {
		t.Fatalf("sparcle_alloc_solves_total moved %v -> %v", solves, got)
	}
}
