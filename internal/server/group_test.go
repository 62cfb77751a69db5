package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/journal"
)

// TestGroupCommitHTTP drives concurrent POST /apps through the commit
// queue every server carries: every submit lands (201 with a real
// placement), duplicates still 409, and /healthz reports the committer's
// activity and echoes its default bound.
func TestGroupCommitHTTP(t *testing.T) {
	srv := New(testNet(t))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := do(t, http.MethodPost, ts.URL+"/apps",
				appJSON(fmt.Sprintf("g%d", i), "best-effort", `, "priority": 1`))
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusCreated {
				var v appView
				if err := json.Unmarshal(body, &v); err != nil || v.TotalRate <= 0 {
					t.Errorf("g%d: bad view %s (%v)", i, body, err)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusCreated {
			t.Fatalf("g%d: status %d", i, c)
		}
	}

	// Duplicate names are rejected from inside the group path too.
	if resp, _ := do(t, http.MethodPost, ts.URL+"/apps", appJSON("g0", "best-effort", "")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate through group path: %d, want 409", resp.StatusCode)
	}

	// A client batch composes with the group path.
	batch := fmt.Sprintf(`{"apps": [%s, %s]}`,
		appJSON("b0", "best-effort", `, "priority": 1`),
		appJSON("b1", "best-effort", `, "priority": 1`))
	resp, body := do(t, http.MethodPost, ts.URL+"/apps/batch", batch)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"admitted":true`) {
		t.Fatalf("batch through group path: %d %s", resp.StatusCode, body)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz struct {
		GroupCommit *core.GroupStats `json:"groupCommit"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	// n submits + one 2-app batch went through groups; the registry
	// refused the duplicate before it queued.
	if hz.GroupCommit == nil || hz.GroupCommit.Apps != n+2 || hz.GroupCommit.Groups == 0 {
		t.Fatalf("healthz groupCommit = %+v, want %d apps through groups", hz.GroupCommit, n+2)
	}
	if hz.GroupCommit.MaxSize != 64 {
		t.Fatalf("healthz groupCommit echoes maxSize %d, want 64", hz.GroupCommit.MaxSize)
	}
}

// TestGroupCommitJournalReplay: grouped admissions are journaled as
// batch records, and a restart recovers the exact same application set.
func TestGroupCommitJournalReplay(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	srv := New(net)
	if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := do(t, http.MethodPost, ts.URL+"/apps",
				appJSON(fmt.Sprintf("j%d", i), "best-effort", `, "priority": 1`))
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("j%d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	before := getApps(t, ts.URL)

	// Crash-restart: a fresh server recovers from the grouped journal.
	srv2 := New(net)
	if err := srv2.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	if after := getApps(t, ts2.URL); after != before {
		t.Fatalf("recovered apps differ\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestGroupCommitSharded: with -shards, intra-region admissions route
// through per-shard committers and /healthz sums their stats.
func TestGroupCommitSharded(t *testing.T) {
	srv, err := NewSharded(shardTestNet(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from, to := "a0", "a1"
			if i%2 == 1 {
				from, to = "b0", "b1"
			}
			resp, body := do(t, http.MethodPost, ts.URL+"/apps",
				shardAppJSON(fmt.Sprintf("s%d", i), from, to, shardBEQoS))
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("s%d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	// Cross-region admission stays on the two-lock path outside the
	// per-shard committers.
	resp, body := do(t, http.MethodPost, ts.URL+"/apps", shardAppJSON("x", "a0", "b1", shardBEQoS))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cross-region beside the committers: %d %s", resp.StatusCode, body)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz struct {
		GroupCommit *core.GroupStats `json:"groupCommit"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.GroupCommit == nil || hz.GroupCommit.Apps != 4 {
		t.Fatalf("sharded healthz groupCommit = %+v, want 4 intra-region apps", hz.GroupCommit)
	}
}

// TestDecodeStrictPooled pins the pooled request-decode path: repeated
// decodes reuse the scratch buffer, keeping per-request allocations to
// the decoder's own small constant rather than a fresh body buffer.
func TestDecodeStrictPooled(t *testing.T) {
	body := appJSON("alloc-pin", "best-effort", `, "priority": 1`)
	var spec struct {
		Name string          `json:"name"`
		CTs  json.RawMessage `json:"cts"`
		TTs  json.RawMessage `json:"tts"`
		QoS  json.RawMessage `json:"qos"`
	}
	for i := 0; i < 10; i++ { // warm the pool
		if err := decodeStrict(strings.NewReader(body), &spec); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := decodeStrict(strings.NewReader(body), &spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("decodeStrict allocates %v per request, want the pooled-buffer constant (<= 24)", allocs)
	}
}

// TestGroupCommitRemoveRepair: DELETE and repair ride the commit queue
// — they serialize against concurrent admissions through the same path
// instead of a separate lock — and their journal records replay to the
// same state.
func TestGroupCommitRemoveRepair(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	srv := New(net)
	if err := srv.EnableJournal(dir, journal.Options{Fsync: journal.SyncAlways}, 0); err != nil {
		t.Fatalf("EnableJournal: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Admit the residents up front (contended admission is covered by
	// TestGroupCommitHTTP); the race under test is removes, repairs and
	// fresh submits interleaving through one commit queue.
	const n = 4
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rr%d", i)
		// Odd entries will be repaired, and repair targets guaranteed-rate.
		spec := appJSON(name, "best-effort", `, "priority": 1`)
		if i%2 == 1 {
			spec = appJSON(name, "guaranteed-rate", `, "minRate": 0.1, "minRateAvailability": 0.5, "maxPaths": 2`)
		}
		if resp, b := do(t, http.MethodPost, ts.URL+"/apps", spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: %d %s", name, resp.StatusCode, b)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("rr%d", i)
			if i%2 == 0 {
				if resp, b := do(t, http.MethodDelete, ts.URL+"/apps/"+name, ""); resp.StatusCode != http.StatusOK {
					t.Errorf("remove %s: %d %s", name, resp.StatusCode, b)
				}
			} else {
				resp, b := do(t, http.MethodPost, ts.URL+"/apps/"+name+"/repair", "")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("repair %s: %d %s", name, resp.StatusCode, b)
					return
				}
				var v appView
				if err := json.Unmarshal(b, &v); err != nil || v.Name != name {
					t.Errorf("repair %s view: %s (%v)", name, b, err)
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Fresh admissions race the removes/repairs through the same
			// queue; either verdict is fine, only the interleaving matters.
			resp, b := do(t, http.MethodPost, ts.URL+"/apps",
				appJSON(fmt.Sprintf("extra%d", i), "best-effort", `, "priority": 1`))
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
				t.Errorf("extra%d: %d %s", i, resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()

	// Misses still 404 through the queue.
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/apps/nope", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove miss: %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/apps/nope/repair", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("repair miss: %d, want 404", resp.StatusCode)
	}

	want := getApps(t, ts.URL)
	ts.Close()

	// The interleaved history replays to the same scheduler.
	srv2, ts2 := journaledServer(t, net, dir)
	defer srv2.Close()
	if got := getApps(t, ts2.URL); got != want {
		t.Fatalf("replayed remove/repair history diverged\nwant: %s\ngot:  %s", want, got)
	}
}
