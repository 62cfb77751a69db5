package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/resource"
	"sparcle/internal/scenario"
)

// shardTestNet is a dumbbell: region {a0,a1} and region {b0,b1} joined
// by one bridge link.
func shardTestNet(t *testing.T) *network.Network {
	t.Helper()
	b := network.NewBuilder("dumbbell")
	caps := resource.Vector{resource.CPU: 1000}
	a0 := b.AddNCP("a0", caps, 0.01)
	a1 := b.AddNCP("a1", caps, 0.01)
	b0 := b.AddNCP("b0", caps, 0.01)
	b1 := b.AddNCP("b1", caps, 0.01)
	b.AddLink("la", a0, a1, 1e6, 0.01)
	b.AddLink("bridge", a1, b0, 1000, 0.02)
	b.AddLink("lb", b0, b1, 1e6, 0.01)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func shardTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := NewSharded(shardTestNet(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestNewShardedRefusesBadShardCounts: a region count the network cannot
// be cut into is an error from the partitioner, not a panic.
func TestNewShardedRefusesBadShardCounts(t *testing.T) {
	for _, k := range []int{0, -1, 5} {
		if _, err := NewSharded(shardTestNet(t), k); err == nil || !strings.Contains(err.Error(), "region") {
			t.Errorf("NewSharded(%d shards) = %v, want the partitioner's error", k, err)
		}
	}
}

// shardAppJSON pins a pipeline from one NCP to another.
func shardAppJSON(name, from, to, qos string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"cts": [
			{"name": "in", "host": %q},
			{"name": "work", "req": {"cpu": 1}},
			{"name": "out", "host": %q}
		],
		"tts": [
			{"from": "in", "to": "work", "bits": 2},
			{"from": "work", "to": "out", "bits": 2}
		],
		"qos": %s
	}`, name, from, to, qos)
}

const shardGRQoS = `{"class": "guaranteed-rate", "minRate": 1, "minRateAvailability": 0.5, "maxPaths": 1}`
const shardBEQoS = `{"class": "best-effort", "priority": 1, "maxPaths": 1}`

func TestShardServerIntraAndCross(t *testing.T) {
	ts, _ := shardTestServer(t)

	// Intra-region app lands in one shard with a real placement.
	resp, body := do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("inA", "a0", "a1", shardGRQoS))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("inA: %d %s", resp.StatusCode, body)
	}
	var intra struct {
		Shard int             `json:"shard"`
		Cross json.RawMessage `json:"cross"`
		Paths []any           `json:"paths"`
	}
	if err := json.Unmarshal(body, &intra); err != nil {
		t.Fatal(err)
	}
	if intra.Cross != nil || len(intra.Paths) == 0 {
		t.Fatalf("intra app response: %s", body)
	}

	// Cross-region app reports the lease.
	resp, body = do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("xr", "a0", "b1", shardGRQoS))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("xr: %d %s", resp.StatusCode, body)
	}
	var cross struct {
		TotalRate float64 `json:"totalRate"`
		Cross     *struct {
			BorderLink string  `json:"borderLink"`
			Rate       float64 `json:"rate"`
		} `json:"cross"`
	}
	if err := json.Unmarshal(body, &cross); err != nil {
		t.Fatal(err)
	}
	if cross.Cross == nil || cross.Cross.BorderLink != "bridge" || cross.TotalRate <= 0 {
		t.Fatalf("cross app response: %s", body)
	}

	// Duplicate logical names conflict across shards.
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("inA", "b0", "b1", shardBEQoS))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate name: %d", resp.StatusCode)
	}

	// /healthz carries the sharding section.
	resp, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz struct {
		Sharding *struct {
			Shards []struct {
				Admitted int `json:"admitted"`
			} `json:"shards"`
			Leases int `json:"leases"`
			Border []struct {
				Link        string  `json:"link"`
				Utilization float64 `json:"utilization"`
			} `json:"border"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Sharding == nil || len(hz.Sharding.Shards) != 2 {
		t.Fatalf("healthz sharding: %s", body)
	}
	if hz.Sharding.Leases != 1 {
		t.Fatalf("healthz leases = %d", hz.Sharding.Leases)
	}
	admitted := 0
	for _, sh := range hz.Sharding.Shards {
		admitted += sh.Admitted
	}
	if admitted != 3 { // inA + two halves of xr
		t.Fatalf("healthz admitted = %d, body %s", admitted, body)
	}
	if len(hz.Sharding.Border) != 1 || hz.Sharding.Border[0].Utilization <= 0 {
		t.Fatalf("healthz border: %s", body)
	}

	// /metrics exposes the per-shard and border series.
	resp, body = do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"sparcle_shard_apps{", "sparcle_border_leases", "sparcle_border_utilization{"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// /apps lists shard-tagged placements (cross halves included).
	resp, body = do(t, http.MethodGet, ts.URL+"/apps", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apps: %d", resp.StatusCode)
	}
	var apps []struct {
		Name  string `json:"name"`
		Shard int    `json:"shard"`
	}
	if err := json.Unmarshal(body, &apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 3 {
		t.Fatalf("apps listed: %s", body)
	}

	// Remove by logical name releases the lease.
	resp, _ = do(t, http.MethodDelete, ts.URL+"/apps/xr", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove xr: %d", resp.StatusCode)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Sharding.Leases != 0 {
		t.Fatalf("lease survived removal: %s", body)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/apps/xr", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double remove: %d", resp.StatusCode)
	}
}

func TestShardServerBatchAndFluctuation(t *testing.T) {
	ts, _ := shardTestServer(t)
	batch := fmt.Sprintf(`{"apps": [%s, %s, %s]}`,
		shardAppJSON("b1", "a0", "a1", shardGRQoS),
		shardAppJSON("b2", "b0", "b1", shardBEQoS),
		shardAppJSON("b3", "a0", "b1", shardGRQoS))
	resp, body := do(t, http.MethodPost, ts.URL+"/apps/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br struct {
		Verdicts []struct {
			Name     string `json:"name"`
			Admitted bool   `json:"admitted"`
			Error    string `json:"error"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Verdicts) != 3 {
		t.Fatalf("verdicts: %s", body)
	}
	for _, v := range br.Verdicts {
		if !v.Admitted {
			t.Fatalf("batch member %s rejected: %s", v.Name, v.Error)
		}
	}

	// Degrading the bridge below the leased bandwidth flags the cross app.
	resp, body = do(t, http.MethodPost, ts.URL+"/fluctuation",
		`{"scale": {"link:bridge": 0.001}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fluctuation: %d %s", resp.StatusCode, body)
	}
	var fr struct {
		ViolatedGR []string `json:"violatedGR"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	violated := false
	for _, name := range fr.ViolatedGR {
		if name == "b3" {
			violated = true
		}
	}
	if !violated {
		t.Fatalf("bridge squeeze did not flag b3: %s", body)
	}
}

// TestShardServerJournalRecovery: a sharded server with a journal
// recovers its full state — shard placements, cross registry, leases —
// on restart.
func TestShardServerJournalRecovery(t *testing.T) {
	net := shardTestNet(t)
	dir := t.TempDir()

	srv, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatal(err)
	}
	noSnapshots(t, dir)
	ts := httptest.NewServer(srv.Handler())
	resp, body := do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("xr", "a0", "b1", shardGRQoS))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("xr: %d %s", resp.StatusCode, body)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("inB", "b0", "b1", shardBEQoS))
	if resp.StatusCode != http.StatusCreated {
		t.Fatal("inB")
	}
	before, err := srv.Router().ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Close()
	after, err := srv2.Router().ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if string(bj) != string(aj) {
		t.Fatalf("recovered state differs\nbefore: %s\nafter:  %s", bj, aj)
	}
	// The recovered router still serves: remove the cross app.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, _ = do(t, http.MethodDelete, ts2.URL+"/apps/xr", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove after recovery: %d", resp.StatusCode)
	}
}

// TestJournalFixturesRecover recovers journals older servers wrote —
// one unsharded and one with -shards 2 by a server that still had an
// unsharded host (testdata/*/journal, each with snapshots and a record
// tail). It checks GET /apps against the listing that server served from
// the same journal, that recovery appends no record, and that every
// listed application routes by its logical name afterwards. The third
// fixture was written with -shards 2 by a server that journaled a
// cross-region operation as several records; that format is retired, so
// recovery refuses it, appending nothing and writing no snapshot.
func TestJournalFixturesRecover(t *testing.T) {
	type listing []struct {
		Name      string  `json:"name"`
		Class     string  `json:"class"`
		TotalRate float64 `json:"totalRate"`
		Paths     []struct {
			Rate  float64           `json:"rate"`
			Hosts map[string]string `json:"hosts"`
		} `json:"paths"`
	}
	for _, fx := range []struct {
		dir     string
		shards  int
		retired bool
	}{{"journal-unsharded", 1, false}, {"journal-shards2", 2, false}, {"journal-shards2-torn", 2, true}} {
		t.Run(fx.dir, func(t *testing.T) {
			base := filepath.Join("testdata", fx.dir)
			data, err := os.ReadFile(filepath.Join(base, "scenario.json"))
			if err != nil {
				t.Fatal(err)
			}
			f, err := scenario.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			netw, err := f.BuildNetwork()
			if err != nil {
				t.Fatal(err)
			}
			// The test serves writes after recovery, so it runs on a copy.
			dir := t.TempDir()
			files, err := os.ReadDir(filepath.Join(base, "journal"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range files {
				b, err := os.ReadFile(filepath.Join(base, "journal", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := j.Recover(); err != nil {
				t.Fatal(err)
			}
			written := j.LastSeq()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err := NewSharded(netw, fx.shards)
			if err != nil {
				t.Fatal(err)
			}
			if fx.retired {
				before := dirListing(t, dir)
				err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncNever}, 1)
				if err == nil || !strings.Contains(err.Error(), "retired journal format") {
					t.Fatalf("recover retired fixture: %v, want a retired-format refusal", err)
				}
				if after := dirListing(t, dir); after != before {
					t.Fatalf("refused recovery changed the journal\nbefore: %s\nafter:  %s", before, after)
				}
				return
			}
			if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncNever}, 0); err != nil {
				t.Fatalf("recover fixture: %v", err)
			}
			defer srv.Close()
			if got := srv.Journal().LastSeq(); got != written {
				t.Fatalf("recovery appended %d records", got-written)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var got, want listing
			if err := json.Unmarshal([]byte(getApps(t, ts.URL)), &got); err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join(base, "apps.golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(golden, &want); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered listing differs from the writer's\nwant: %+v\ngot:  %+v", want, got)
			}
			// The registry is a fold of the log: every resident routes.
			removed := map[string]bool{}
			for _, app := range want {
				name, _, _ := strings.Cut(app.Name, "@") // a cross-region app lists as its halves
				if removed[name] {
					continue
				}
				removed[name] = true
				if resp, b := do(t, http.MethodDelete, ts.URL+"/apps/"+name, ""); resp.StatusCode != http.StatusOK {
					t.Fatalf("DELETE %s after recovery: %d %s", name, resp.StatusCode, b)
				}
			}
		})
	}
}

// dirListing renders the names and sizes of dir's files.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range files {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%d ", e.Name(), info.Size())
	}
	return b.String()
}
