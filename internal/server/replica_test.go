package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparcle/internal/journal"
)

// swapHandler lets a node's public address outlive its Server: the
// cluster's peer map is fixed at bootstrap, so crash/restart tests swap
// the handler behind a stable httptest URL instead of rebinding ports.
type swapHandler struct{ h atomic.Value }

func newSwapHandler() *swapHandler {
	s := &swapHandler{}
	s.set(downHandler)
	return s
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// downHandler is what a crashed node answers with: the listener is still
// bound (httptest keeps it) but every request fails like a dead process
// behind a load balancer.
var downHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "node down", http.StatusBadGateway)
})

// replTestNode is one member of a test cluster: a stable public URL
// (via swapHandler) plus whatever Server currently backs it.
type replTestNode struct {
	id   string
	idx  int
	dir  string
	ts   *httptest.Server
	swap *swapHandler
	srv  *Server
}

type replTestCluster struct {
	t         *testing.T
	sharded   bool
	snapEvery int
	ids       []string
	nodes     map[string]*replTestNode
	peers     map[string]string
}

// startReplCluster binds three public addresses, then boots a replicated
// server behind each. Fsync is always-on so a crash loses nothing the
// journal acked.
func startReplCluster(t *testing.T, sharded bool, snapEvery int) *replTestCluster {
	t.Helper()
	c := &replTestCluster{
		t:         t,
		sharded:   sharded,
		snapEvery: snapEvery,
		ids:       []string{"n0", "n1", "n2"},
		nodes:     make(map[string]*replTestNode),
		peers:     make(map[string]string),
	}
	for i, id := range c.ids {
		n := &replTestNode{id: id, idx: i, dir: t.TempDir(), swap: newSwapHandler()}
		n.ts = httptest.NewServer(n.swap)
		t.Cleanup(n.ts.Close)
		c.nodes[id] = n
		c.peers[id] = n.ts.URL
	}
	for _, id := range c.ids {
		c.boot(id)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			if n.srv != nil {
				n.srv.Close()
			}
		}
	})
	return c
}

// boot starts (or restarts, over the same journal dir) the server behind
// node id and swaps it live.
func (c *replTestCluster) boot(id string) *Server {
	c.t.Helper()
	n := c.nodes[id]
	var srv *Server
	if c.sharded {
		s, err := NewSharded(shardTestNet(c.t), 2)
		if err != nil {
			c.t.Fatalf("NewSharded(%s): %v", id, err)
		}
		srv = s
	} else {
		srv = New(testNet(c.t))
	}
	if err := srv.EnableReplication(ReplicationConfig{
		NodeID:          id,
		Peers:           c.peers,
		Dir:             n.dir,
		Journal:         journal.Options{Fsync: journal.SyncAlways},
		SnapshotEvery:   c.snapEvery,
		Heartbeat:       10 * time.Millisecond,
		ElectionTimeout: 150 * time.Millisecond,
		Seed:            int64(n.idx + 1),
	}); err != nil {
		c.t.Fatalf("EnableReplication(%s): %v", id, err)
	}
	n.srv = srv
	n.swap.set(srv.Handler())
	return srv
}

// crash takes node id off the network and stops its process. The journal
// directory survives for a later boot, like a machine rebooting.
func (c *replTestCluster) crash(id string) {
	c.t.Helper()
	n := c.nodes[id]
	n.swap.set(downHandler)
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// waitLeader polls until one live node is a ready leader whose state
// machine has caught its log (i.e. the write gate admits requests).
func (c *replTestCluster) waitLeader(t *testing.T) *replTestNode {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, id := range c.ids {
			n := c.nodes[id]
			if n.srv == nil {
				continue
			}
			st := n.srv.Replica().Status()
			if st.Role == "leader" && st.Ready && st.LastApplied == st.LastSeq {
				return n
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no ready leader elected")
	return nil
}

// waitConverged polls until every live node has applied the same log
// position; after it returns, the live schedulers reflect an identical
// committed history.
func (c *replTestCluster) waitConverged(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var max uint64
		synced := true
		live := 0
		for _, n := range c.nodes {
			if n.srv == nil {
				continue
			}
			live++
			st := n.srv.Replica().Status()
			if st.LastApplied != st.LastSeq || st.CommitIndex != st.LastSeq {
				synced = false
			}
			if max == 0 {
				max = st.LastSeq
			} else if st.LastSeq != max {
				synced = false
				if st.LastSeq > max {
					max = st.LastSeq
				}
			}
		}
		if synced && live > 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("live nodes did not converge")
}

// postLeader submits body to path, following one 421 hop; election churn
// between waitLeader and the request must not flake the test.
func (c *replTestCluster) postLeader(t *testing.T, n *replTestNode, path, body string) (*http.Response, []byte) {
	t.Helper()
	return c.leaderDo(t, n, http.MethodPost, path, body)
}

// leaderDo is postLeader for any method.
func (c *replTestCluster) leaderDo(t *testing.T, n *replTestNode, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	url := n.ts.URL
	for {
		resp, b := do(t, method, url+path, body)
		if resp.StatusCode == http.StatusMisdirectedRequest {
			var redir struct {
				URL string `json:"leaderUrl"`
			}
			if json.Unmarshal(b, &redir) == nil && redir.URL != "" {
				url = redir.URL
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		return resp, b
	}
}

// TestReplicatedClusterQuorumAck boots a 3-node cluster, writes through
// the leader, checks the follower redirect and the /healthz mirror, and
// asserts every node's scheduler converges to the same state.
func TestReplicatedClusterQuorumAck(t *testing.T) {
	c := startReplCluster(t, false, 0)
	leader := c.waitLeader(t)

	for i := 0; i < 4; i++ {
		resp, b := c.postLeader(t, leader, "/apps", appJSON(fmt.Sprintf("app-%d", i), "best-effort", `, "priority": 1`))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit app-%d: %d %s", i, resp.StatusCode, b)
		}
	}
	if resp, b := do(t, http.MethodDelete, leader.ts.URL+"/apps/app-1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: %d %s", resp.StatusCode, b)
	}

	// A write to a follower answers 421 with the leader's address.
	leaderID := leader.srv.Replica().Status().ID
	for _, n := range c.nodes {
		if n.id == leaderID {
			continue
		}
		resp, b := do(t, http.MethodPost, n.ts.URL+"/apps", appJSON("misdirected", "best-effort", `, "priority": 1`))
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("follower write: %d %s", resp.StatusCode, b)
		}
		if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leader.ts.URL) || !strings.HasSuffix(loc, "/apps") {
			t.Fatalf("Location = %q, want %s/apps", loc, leader.ts.URL)
		}
		var redir redirectResponse
		if err := json.Unmarshal(b, &redir); err != nil || redir.URL != leader.ts.URL || redir.Leader != leaderID {
			t.Fatalf("421 body = %s", b)
		}
		break
	}

	// /healthz mirrors the node's replication status.
	resp, b := do(t, http.MethodGet, leader.ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
	var hz struct {
		Replication *replicationHealth `json:"replication"`
	}
	if err := json.Unmarshal(b, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Replication == nil || hz.Replication.Role != "leader" || !hz.Replication.Ready {
		t.Fatalf("healthz replication = %+v", hz.Replication)
	}
	if hz.Replication.CommitIndex < 5 {
		t.Fatalf("commitIndex = %d, want >= 5 (barrier + 4 submits + remove)", hz.Replication.CommitIndex)
	}

	c.waitConverged(t)
	want := getApps(t, leader.ts.URL)
	for _, n := range c.nodes {
		if got := getApps(t, n.ts.URL); got != want {
			t.Fatalf("node %s diverged\nleader: %s\nnode:   %s", n.id, want, got)
		}
	}
}

// TestReplicatedFailover kills the leader mid-stream and asserts a
// survivor takes over with every acked admission intact.
func TestReplicatedFailover(t *testing.T) {
	c := startReplCluster(t, false, 0)
	leader := c.waitLeader(t)

	names := []string{"f-0", "f-1", "f-2"}
	for _, name := range names {
		resp, b := c.postLeader(t, leader, "/apps", appJSON(name, "best-effort", `, "priority": 1`))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: %d %s", name, resp.StatusCode, b)
		}
	}
	c.waitConverged(t)
	want := getApps(t, leader.ts.URL)

	c.crash(leader.id)
	next := c.waitLeader(t)
	if next.id == leader.id {
		t.Fatalf("crashed node %s still leading", leader.id)
	}

	// Nothing acked was lost across the failover.
	if got := getApps(t, next.ts.URL); got != want {
		t.Fatalf("failover lost state\nbefore: %s\nafter:  %s", want, got)
	}
	// The new leader accepts writes.
	resp, b := c.postLeader(t, next, "/apps", appJSON("post-failover", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-failover submit: %d %s", resp.StatusCode, b)
	}
	c.waitConverged(t)
	want = getApps(t, next.ts.URL)
	if !strings.Contains(want, "post-failover") {
		t.Fatalf("post-failover app missing: %s", want)
	}
	for _, n := range c.nodes {
		if n.srv == nil {
			continue
		}
		if got := getApps(t, n.ts.URL); got != want {
			t.Fatalf("survivor %s diverged\nleader: %s\nnode:   %s", n.id, want, got)
		}
	}
}

// TestReplicatedFollowerCatchup crashes a follower, advances the leader
// past a snapshot boundary so the follower's tail is no longer in the
// leader's log, reboots it, and asserts it converges via snapshot
// install.
func TestReplicatedFollowerCatchup(t *testing.T) {
	c := startReplCluster(t, false, 3)
	leader := c.waitLeader(t)

	resp, b := c.postLeader(t, leader, "/apps", appJSON("early", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit early: %d %s", resp.StatusCode, b)
	}
	c.waitConverged(t)

	var lagging *replTestNode
	for _, id := range c.ids {
		if id != leader.id {
			lagging = c.nodes[id]
			break
		}
	}
	c.crash(lagging.id)

	for i := 0; i < 10; i++ {
		resp, b := c.postLeader(t, leader, "/apps", appJSON(fmt.Sprintf("deep-%d", i), "best-effort", `, "priority": 1`))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit deep-%d: %d %s", i, resp.StatusCode, b)
		}
	}
	lst := leader.srv.Replica().Status()
	if lst.SnapshotSeq < 3 {
		t.Fatalf("leader never snapshotted: %+v", lst)
	}

	c.boot(lagging.id)
	c.waitConverged(t)
	want := getApps(t, leader.ts.URL)
	if got := getApps(t, lagging.ts.URL); got != want {
		t.Fatalf("caught-up follower diverged\nleader:   %s\nfollower: %s", want, got)
	}
	// The reboot resumed from a snapshot at or past the leader's base —
	// the pruned tail was never replayed record by record.
	if st := lagging.srv.Replica().Status(); st.SnapshotSeq < 3 {
		t.Fatalf("follower caught up without a snapshot install: %+v", st)
	}
}

// TestReplicatedDeposedLeaderTruncates drives the unknown-outcome path:
// a leader that cannot reach quorum keeps the un-acked record in its
// local journal; when it returns after a new quorum has committed past
// that index, the orphan is truncated, not resurrected.
func TestReplicatedDeposedLeaderTruncates(t *testing.T) {
	c := startReplCluster(t, false, 0)
	leader := c.waitLeader(t)

	resp, b := c.postLeader(t, leader, "/apps", appJSON("acked", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit acked: %d %s", resp.StatusCode, b)
	}
	c.waitConverged(t)

	// Isolate the leader by crashing both followers, then write to it:
	// no quorum, so the request must fail — but the record is already in
	// the deposed leader's journal.
	for _, id := range c.ids {
		if id != leader.id {
			c.crash(id)
		}
	}
	resp, b = do(t, http.MethodPost, leader.ts.URL+"/apps", appJSON("orphan", "best-effort", `, "priority": 1`))
	if resp.StatusCode == http.StatusCreated {
		t.Fatalf("quorumless write was acked: %d %s", resp.StatusCode, b)
	}

	// The old leader goes down too; the followers come back, elect among
	// themselves, and commit new history past the orphan's index.
	c.crash(leader.id)
	for _, id := range c.ids {
		if id != leader.id {
			c.boot(id)
		}
	}
	next := c.waitLeader(t)
	resp, b = c.postLeader(t, next, "/apps", appJSON("new-era", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("new-era submit: %d %s", resp.StatusCode, b)
	}

	// The deposed leader reboots with the orphan in its log and must
	// truncate it in favor of the new quorum's history.
	c.boot(leader.id)
	c.waitConverged(t)
	final := c.waitLeader(t)
	want := getApps(t, final.ts.URL)
	if strings.Contains(want, "orphan") {
		t.Fatalf("un-acked record resurrected: %s", want)
	}
	for _, name := range []string{"acked", "new-era"} {
		if !strings.Contains(want, name) {
			t.Fatalf("acked app %q lost: %s", name, want)
		}
	}
	for _, n := range c.nodes {
		if got := getApps(t, n.ts.URL); got != want {
			t.Fatalf("node %s diverged after truncation\nwant: %s\ngot:  %s", n.id, want, got)
		}
	}
}

// TestReplicatedShardFailover replicates the sharded router: each
// operation is one envelope, followers apply every envelope hot, and a
// promoted leader routes every name the log admitted — intra-region and
// cross-region — with no pass of its own before its first write. A
// follower restarted from its own log serves the leader's listing.
func TestReplicatedShardFailover(t *testing.T) {
	c := startReplCluster(t, true, 0)
	leader := c.waitLeader(t)

	for _, app := range []struct{ name, from, to string }{
		{"inA", "a0", "a1"},
		{"inB", "b0", "b1"},
		{"crossAB", "a0", "b1"},
	} {
		resp, b := c.postLeader(t, leader, "/apps", shardAppJSON(app.name, app.from, app.to, shardBEQoS))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: %d %s", app.name, resp.StatusCode, b)
		}
	}
	c.waitConverged(t)

	c.crash(leader.id)
	next := c.waitLeader(t)
	for _, name := range []string{"inA", "crossAB"} {
		if resp, b := c.leaderDo(t, next, http.MethodDelete, "/apps/"+name, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s on the promoted leader: %d %s", name, resp.StatusCode, b)
		}
	}
	resp, b := c.postLeader(t, next, "/apps", shardAppJSON("after", "a0", "a1", shardBEQoS))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-failover submit: %d %s", resp.StatusCode, b)
	}
	got := getApps(t, next.ts.URL)
	// A cross-region app lists as its two per-shard halves (name@0 and
	// name@1), so match names as substrings.
	for _, name := range []string{"inB", "after"} {
		if !strings.Contains(got, name) {
			t.Fatalf("app %q missing after shard failover: %s", name, got)
		}
	}
	for _, name := range []string{"inA", "crossAB"} {
		if strings.Contains(got, name) {
			t.Fatalf("deleted app %q still listed: %s", name, got)
		}
	}

	c.waitConverged(t)
	var follower string
	for _, id := range c.ids {
		if id != leader.id && id != next.id {
			follower = id
		}
	}
	c.crash(follower)
	c.boot(follower)
	c.waitConverged(t)
	want := getApps(t, c.waitLeader(t).ts.URL)
	if got := getApps(t, c.nodes[follower].ts.URL); got != want {
		t.Fatalf("follower restarted from its log diverged\nleader:   %s\nfollower: %s", want, got)
	}
}

// bootJoin starts a brand-new node (fresh ID, fresh journal, empty
// membership) in Join mode behind its own stable URL and registers it
// with the cluster for later crash/boot cycles.
func (c *replTestCluster) bootJoin(id string) *replTestNode {
	c.t.Helper()
	n := &replTestNode{id: id, idx: len(c.ids), dir: c.t.TempDir(), swap: newSwapHandler()}
	n.ts = httptest.NewServer(n.swap)
	c.t.Cleanup(n.ts.Close)
	c.nodes[id] = n
	c.ids = append(c.ids, id)

	srv := New(testNet(c.t))
	if err := srv.EnableReplication(ReplicationConfig{
		NodeID:          id,
		Peers:           map[string]string{id: n.ts.URL},
		Dir:             n.dir,
		Journal:         journal.Options{Fsync: journal.SyncAlways},
		SnapshotEvery:   c.snapEvery,
		Heartbeat:       10 * time.Millisecond,
		ElectionTimeout: 150 * time.Millisecond,
		Seed:            int64(n.idx + 1),
		Join:            true,
	}); err != nil {
		c.t.Fatalf("EnableReplication(join %s): %v", id, err)
	}
	n.srv = srv
	n.swap.set(srv.Handler())
	return n
}

// getMembers fetches GET /repl/members from one node.
func getMembers(t *testing.T, base string) membersResponse {
	t.Helper()
	resp, b := do(t, http.MethodGet, base+"/repl/members", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /repl/members: %d %s", resp.StatusCode, b)
	}
	var m membersResponse
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("decode members: %v (%s)", err, b)
	}
	return m
}

// TestReplicatedMembershipJoinAndRemove drives a live membership cycle
// end to end over HTTP: a fresh node joins through POST /repl/members,
// catches up, is auto-promoted to voter, serves identical state; then a
// dead original member is removed and the cluster keeps writing.
func TestReplicatedMembershipJoinAndRemove(t *testing.T) {
	c := startReplCluster(t, false, 0)
	leader := c.waitLeader(t)

	for i := 0; i < 3; i++ {
		resp, b := c.postLeader(t, leader, "/apps", appJSON(fmt.Sprintf("m-%d", i), "best-effort", `, "priority": 1`))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit m-%d: %d %s", i, resp.StatusCode, b)
		}
	}

	// A write-shaped request to the members route on a follower answers
	// the standard 421 redirect contract.
	leaderID := leader.srv.Replica().Status().ID
	for _, id := range c.ids {
		if id == leaderID {
			continue
		}
		resp, b := do(t, http.MethodPost, c.nodes[id].ts.URL+"/repl/members", `{"action":"add","id":"n3","url":"http://unused"}`)
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("follower member change: %d %s", resp.StatusCode, b)
		}
		if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leader.ts.URL) {
			t.Fatalf("Location = %q, want prefix %s", loc, leader.ts.URL)
		}
		break
	}

	// Join a fresh fourth node through the admin route.
	joiner := c.bootJoin("n3")
	resp, b := c.postLeader(t, leader, "/repl/members", fmt.Sprintf(`{"action":"add","id":"n3","url":%q}`, joiner.ts.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add n3: %d %s", resp.StatusCode, b)
	}
	// The leader streams it the log and auto-promotes it once caught up.
	deadline := time.Now().Add(15 * time.Second)
	for {
		m := getMembers(t, leader.ts.URL)
		var voter bool
		for _, mem := range m.Members {
			if mem.ID == "n3" && mem.Voter {
				voter = true
			}
		}
		if voter {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n3 never promoted: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.waitConverged(t)
	want := getApps(t, leader.ts.URL)
	if got := getApps(t, joiner.ts.URL); got != want {
		t.Fatalf("joined node diverged\nleader: %s\njoiner: %s", want, got)
	}
	// The joiner's /healthz mirrors the 4-member configuration.
	hresp, hb := do(t, http.MethodGet, joiner.ts.URL+"/healthz", "")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("joiner healthz: %d %s", hresp.StatusCode, hb)
	}
	var hz struct {
		Replication *replicationHealth `json:"replication"`
	}
	if err := json.Unmarshal(hb, &hz); err != nil || hz.Replication == nil {
		t.Fatalf("joiner healthz replication: %v (%s)", err, hb)
	}
	if len(hz.Replication.Members) != 4 || !hz.Replication.Voter {
		t.Fatalf("joiner healthz members = %+v", hz.Replication)
	}

	// Kill one ORIGINAL node and remove it; the 3 survivors (2 original +
	// the joiner) keep a quorum and keep accepting writes.
	var dead string
	for _, id := range []string{"n0", "n1", "n2"} {
		if id != leaderID {
			dead = id
			break
		}
	}
	c.crash(dead)
	resp, b = c.postLeader(t, leader, "/repl/members", fmt.Sprintf(`{"action":"remove","id":%q}`, dead))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove %s: %d %s", dead, resp.StatusCode, b)
	}
	for {
		m := getMembers(t, leader.ts.URL)
		if len(m.Members) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never removed: %+v", dead, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Removing an unknown member is a 404.
	if resp, b := c.postLeader(t, leader, "/repl/members", `{"action":"remove","id":"ghost"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove ghost: %d %s", resp.StatusCode, b)
	}
	resp, b = c.postLeader(t, leader, "/apps", appJSON("post-remove", "best-effort", `, "priority": 1`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-remove submit: %d %s", resp.StatusCode, b)
	}
	c.waitConverged(t)
	if got := getApps(t, joiner.ts.URL); !strings.Contains(got, "post-remove") {
		t.Fatalf("joiner missing post-remove write: %s", got)
	}
}
