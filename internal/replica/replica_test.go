package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparcle/internal/journal"
	"sparcle/internal/obs"
)

// --- in-process cluster harness ---

// testNet injects partitions: a cut link fails both directions.
type testNet struct {
	mu  sync.Mutex
	cut map[string]bool
}

func newTestNet() *testNet { return &testNet{cut: make(map[string]bool)} }

func (tn *testNet) blocked(from, to string) bool {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.cut[from+"->"+to]
}

func (tn *testNet) setCut(a, b string, cut bool) {
	tn.setCutFrom(a, b, cut)
	tn.setCutFrom(b, a, cut)
}

// setCutFrom cuts (or heals) only the calls from one node to another.
func (tn *testNet) setCutFrom(from, to string, cut bool) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.cut[from+"->"+to] = cut
}

// isolate cuts id from every other node.
func (tn *testNet) isolate(ids []string, id string, cut bool) {
	for _, other := range ids {
		if other != id {
			tn.setCut(id, other, cut)
		}
	}
}

var errPartitioned = errors.New("testnet: partitioned")
var errDown = errors.New("testnet: node down")

// localTransport calls the target node's handlers directly, resolving
// the node at call time so restarts swap in the new instance.
type localTransport struct {
	net      *testNet
	from, to string
	resolve  func(id string) *Node
}

func (lt *localTransport) target() (*Node, error) {
	if lt.net.blocked(lt.from, lt.to) {
		return nil, errPartitioned
	}
	n := lt.resolve(lt.to)
	if n == nil {
		return nil, errDown
	}
	return n, nil
}

func (lt *localTransport) AppendEntries(_ context.Context, req *AppendRequest) (*AppendResponse, error) {
	n, err := lt.target()
	if err != nil {
		return nil, err
	}
	return n.HandleAppendEntries(req)
}

func (lt *localTransport) RequestVote(_ context.Context, req *VoteRequest) (*VoteResponse, error) {
	n, err := lt.target()
	if err != nil {
		return nil, err
	}
	return n.HandleRequestVote(req)
}

func (lt *localTransport) InstallSnapshot(_ context.Context, req *InstallSnapshotRequest) (*InstallSnapshotResponse, error) {
	n, err := lt.target()
	if err != nil {
		return nil, err
	}
	return n.HandleInstallSnapshot(req)
}

// fakeSM is an order-sensitive log of applied payloads. exports counts
// SnapshotWith calls: each is a full state export, whether or not the
// node then cuts a snapshot from it. While applyErr (snapErr) is set,
// Apply (SnapshotWith) fails with it.
type fakeSM struct {
	mu       sync.Mutex
	applied  []string
	applyErr error
	snapErr  error
	exports  atomic.Int64
}

func (s *fakeSM) Apply(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applyErr != nil {
		return s.applyErr
	}
	s.applied = append(s.applied, string(data))
	return nil
}

func (s *fakeSM) setApplyErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyErr = err
}

func (s *fakeSM) setSnapErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapErr = err
}

func (s *fakeSM) SnapshotWith(write func(state []byte) error) error {
	s.exports.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapErr != nil {
		return s.snapErr
	}
	state, err := json.Marshal(s.applied)
	if err != nil {
		return err
	}
	return write(state)
}

// applyAndPropose is what the server's commit hook does with one write:
// apply it and propose it under the state machine's lock, so a snapshot
// export never captures an operation the log does not hold yet.
func (s *fakeSM) applyAndPropose(data []byte, propose func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, string(data))
	return propose()
}

func (s *fakeSM) Restore(snap []byte, entries [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = nil
	if snap != nil {
		if err := json.Unmarshal(snap, &s.applied); err != nil {
			return err
		}
	}
	for _, e := range entries {
		s.applied = append(s.applied, string(e))
	}
	return nil
}

func (s *fakeSM) state() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.applied...)
}

type cluster struct {
	t    testing.TB
	ids  []string
	net  *testNet
	dirs map[string]string

	mu       sync.Mutex
	nodes    map[string]*Node
	sms      map[string]*fakeSM
	journals map[string]*journal.Journal
	// regs holds each node's metrics registry, by ID (created on boot).
	regs map[string]*obs.Registry

	snapshotEvery int
	// electionTimeout is every node's ElectionTimeout (60ms when zero).
	electionTimeout time.Duration
}

func newCluster(t testing.TB, snapshotEvery int) *cluster {
	t.Helper()
	c := newIdleCluster(t, snapshotEvery)
	for i, id := range c.ids {
		c.startNode(id, int64(i+1))
	}
	return c
}

// newIdleCluster is newCluster with no node started yet.
func newIdleCluster(t testing.TB, snapshotEvery int) *cluster {
	t.Helper()
	c := &cluster{
		t:             t,
		ids:           []string{"a", "b", "c"},
		net:           newTestNet(),
		dirs:          make(map[string]string),
		nodes:         make(map[string]*Node),
		sms:           make(map[string]*fakeSM),
		journals:      make(map[string]*journal.Journal),
		snapshotEvery: snapshotEvery,
	}
	for _, id := range c.ids {
		c.dirs[id] = t.TempDir()
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

func (c *cluster) sm(id string) *fakeSM {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sms[id]
}

func (c *cluster) startNode(id string, seed int64) *Node {
	c.t.Helper()
	peers := make(map[string]Transport)
	for _, pid := range c.ids {
		if pid == id {
			continue
		}
		peers[pid] = &localTransport{net: c.net, from: id, to: pid, resolve: c.node}
	}
	return c.bootNode(id, seed, peers, false, c.snapshotEvery)
}

// startJoinNode boots a node in Join mode: no static peers, an empty
// boot configuration, membership learned from the leader's stream. Its
// own snapshot cadence is disabled so a SnapshotSeq > 0 proves a
// snapshot INSTALL from the leader rather than local compaction.
func (c *cluster) startJoinNode(id string, seed int64) *Node {
	c.t.Helper()
	c.mu.Lock()
	if _, ok := c.dirs[id]; !ok {
		c.dirs[id] = c.t.TempDir()
		c.ids = append(c.ids, id)
	}
	c.mu.Unlock()
	return c.bootNode(id, seed, nil, true, -1)
}

func (c *cluster) bootNode(id string, seed int64, peers map[string]Transport, join bool, snapshotEvery int) *Node {
	c.t.Helper()
	j, err := journal.Open(c.dirs[id], journal.Options{})
	if err != nil {
		c.t.Fatalf("open journal %s: %v", id, err)
	}
	sm := &fakeSM{}
	reg := obs.NewRegistry()
	election := c.electionTimeout
	if election == 0 {
		election = 60 * time.Millisecond
	}
	n, err := New(Config{
		ID:    id,
		Peers: peers,
		Join:  join,
		TransportFactory: func(pid, addr string) Transport {
			return &localTransport{net: c.net, from: id, to: pid, resolve: c.node}
		},
		MaxLearnerLag:   4,
		Journal:         j,
		SM:              sm,
		SnapshotEvery:   snapshotEvery,
		Heartbeat:       5 * time.Millisecond,
		ElectionTimeout: election,
		RPCTimeout:      80 * time.Millisecond,
		ProposeTimeout:  700 * time.Millisecond,
		Metrics:         reg,
		Seed:            seed,
	})
	if err != nil {
		c.t.Fatalf("new node %s: %v", id, err)
	}
	if err := n.Start(); err != nil {
		c.t.Fatalf("start node %s: %v", id, err)
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.sms[id] = sm
	c.journals[id] = j
	if c.regs == nil {
		c.regs = make(map[string]*obs.Registry)
	}
	c.regs[id] = reg
	c.mu.Unlock()
	return n
}

// stopNode simulates a process kill: node loops stop, journal closes.
func (c *cluster) stopNode(id string) {
	c.mu.Lock()
	n, j := c.nodes[id], c.journals[id]
	c.nodes[id] = nil
	c.journals[id] = nil
	c.mu.Unlock()
	if n != nil {
		n.Stop()
	}
	if j != nil {
		j.Close()
	}
}

func (c *cluster) stopAll() {
	for _, id := range c.ids {
		stopWithin(c.t, "node "+id, func() { c.stopNode(id) })
	}
}

// stopTimeout bounds how long a test cleanup waits for a node to stop.
const stopTimeout = 5 * time.Second

// stopWithin runs stop, a cleanup's stop of what, and waits for it at
// most stopTimeout. When the test goroutine panics inside a node handler
// that holds the node's lock, testing runs the cleanups before it prints
// the panic, and a stop then blocks on that lock for good: reporting the
// stuck node and returning lets the panic reach the output within
// seconds instead of the package timeout's goroutine dump.
func stopWithin(tb testing.TB, what string, stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		stop()
	}()
	select {
	case <-done:
	case <-time.After(stopTimeout):
		tb.Errorf("%s did not stop within %v: a handler panicked holding its lock?", what, stopTimeout)
	}
}

func (c *cluster) live() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Node
	for _, id := range c.ids {
		if n := c.nodes[id]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// waitLeader blocks until some live node (excluding the listed IDs —
// e.g. an isolated old leader that cannot learn it was deposed) is a
// ready leader.
func (c *cluster) waitLeader(exclude ...string) *Node {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range c.live() {
			skip := false
			for _, x := range exclude {
				if n.ID() == x {
					skip = true
				}
			}
			if skip {
				continue
			}
			st := n.Status()
			if st.Role == "leader" && st.Ready {
				return n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("no ready leader elected")
	return nil
}

// waitConverged blocks until every live node's applied state equals
// want (order-sensitive).
func (c *cluster) waitConverged(want []string) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		c.mu.Lock()
		for _, id := range c.ids {
			if c.nodes[id] == nil {
				continue
			}
			if !reflect.DeepEqual(c.sms[id].state(), want) {
				ok = false
				break
			}
		}
		c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ids {
		if c.nodes[id] != nil {
			c.t.Logf("node %s: %v (status %+v)", id, c.sms[id].state(), c.nodes[id].Status())
		}
	}
	c.t.Fatalf("cluster did not converge to %v", want)
}

// propose emulates what the server does with one write: find the ready
// leader, apply the op to ITS state machine and Propose it under that
// machine's lock (the leader's scheduler runs the op before the commit
// hook proposes), waiting for quorum. Retried across failovers like an HTTP client following
// redirects. A leader that applied locally but failed to commit is left
// to the truncate+restore heal, exactly as in production.
func (c *cluster) propose(payload string) error {
	c.t.Helper()
	data := []byte(fmt.Sprintf("%q", payload))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Pick the ready leader with the highest term: an isolated old
		// leader can still believe it leads, but redirects from the
		// majority side point clients at the newest term.
		var target *Node
		var targetTerm uint64
		for _, n := range c.live() {
			if st := n.Status(); st.Role == "leader" && st.Ready && st.Term > targetTerm {
				target, targetTerm = n, st.Term
			}
		}
		if target == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		err := c.sm(target.ID()).applyAndPropose(data, func() error { return target.Propose(data) })
		var nl *NotLeaderError
		switch {
		case err == nil:
			return nil
		case errors.As(err, &nl), errors.Is(err, ErrNotReady), errors.Is(err, ErrNoQuorum), errors.Is(err, ErrStopped):
			time.Sleep(5 * time.Millisecond)
			continue
		default:
			return err
		}
	}
	return fmt.Errorf("propose %q: no leader accepted before deadline", payload)
}

func quoted(vals ...string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%q", v)
	}
	return out
}

// --- tests ---

func TestElectionAndReplication(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	for i := 0; i < 5; i++ {
		if err := c.propose(fmt.Sprintf("op-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitConverged(quoted("op-0", "op-1", "op-2", "op-3", "op-4"))
	// Exactly one leader.
	leaders := 0
	for _, n := range c.live() {
		if n.Status().Role == "leader" {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d concurrent leaders", leaders)
	}
	if got := lead.Status().CommitIndex; got < 5 {
		t.Fatalf("leader commit index %d, want >= 5", got)
	}
}

func TestPartitionedFollowerCatchesUpByStreaming(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	var lag string
	for _, id := range c.ids {
		if id != lead.ID() {
			lag = id
			break
		}
	}
	c.net.isolate(c.ids, lag, true)
	var want []string
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("cut-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err) // quorum = leader + remaining follower
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	c.net.isolate(c.ids, lag, false)
	c.waitConverged(want)
}

func TestLaggerBeyondSnapshotGetsInstall(t *testing.T) {
	c := newCluster(t, 3) // aggressive snapshot cadence
	lead := c.waitLeader()
	var lag string
	for _, id := range c.ids {
		if id != lead.ID() {
			lag = id
			break
		}
	}
	c.net.isolate(c.ids, lag, true)
	var want []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("deep-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	// Wait for the leader to compact past the follower's log end so only
	// a snapshot install can repair it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.node(lead.ID()).Status().SnapshotSeq > 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base := c.node(lead.ID()).Status().SnapshotSeq; base <= 1 {
		t.Fatalf("leader snapshot base %d after %d proposals at a cadence of 3, want > 1", base, len(want))
	}
	lead.mu.Lock()
	slow := &slowInstall{Transport: lead.trans[lag]}
	lead.trans[lag] = slow
	lead.mu.Unlock()
	c.net.isolate(c.ids, lag, false)
	c.waitConverged(want)
	if base := c.node(lag).Status().SnapshotSeq; base <= 1 {
		t.Fatalf("lagging follower snapshot base %d, want > 1 (installed)", base)
	}
	// Exactly one install: heartbeats fired while it was in flight, or
	// answered after it landed, must not start another.
	time.Sleep(100 * time.Millisecond) // 40 heartbeat ticks
	if got := c.regs[lag].Counter(metricCatchupSnaps).Value(); got != 1 {
		t.Fatalf("lagging follower took %v snapshot installs, want 1", got)
	}
	if got := slow.sent.Load(); got != 1 {
		t.Fatalf("leader sent %d snapshot installs, want 1", got)
	}
}

// slowInstall counts the snapshot installs sent through it and holds
// each before delivering it, so the leader's heartbeats keep firing at
// the peer while the install is in flight.
type slowInstall struct {
	Transport
	sent atomic.Int32
}

func (s *slowInstall) InstallSnapshot(ctx context.Context, req *InstallSnapshotRequest) (*InstallSnapshotResponse, error) {
	s.sent.Add(1)
	time.Sleep(50 * time.Millisecond) // 20 heartbeat ticks
	return s.Transport.InstallSnapshot(ctx, req)
}

// countingTransport records every entry-carrying AppendEntries sent
// through it, and how many appends of any kind the peer rejected.
type countingTransport struct {
	Transport
	mu       sync.Mutex
	sent     []*AppendRequest
	rejected int
}

func (ct *countingTransport) AppendEntries(ctx context.Context, req *AppendRequest) (*AppendResponse, error) {
	resp, err := ct.Transport.AppendEntries(ctx, req)
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if len(req.Entries) > 0 {
		ct.sent = append(ct.sent, req)
	}
	if err == nil && !resp.Success {
		ct.rejected++
	}
	return resp, err
}

// TestProposeSendsEachFollowerItsEntryOnce pins the propose hot path:
// on a healthy cluster each proposal reaches each caught-up follower as
// one AppendEntries carrying exactly its own entry, anchored at the entry
// before it. Heartbeats carry no entries; any further entry-carrying
// send is a repair answering a rejection (an append that overtook an
// earlier one still in flight).
func TestProposeSendsEachFollowerItsEntryOnce(t *testing.T) {
	const ops = 200
	c := newCluster(t, -1)
	lead := c.waitLeader()
	if err := c.propose("warm"); err != nil {
		t.Fatal(err)
	}
	want := quoted("warm")
	c.waitConverged(want)

	counters := make(map[string]*countingTransport)
	lead.mu.Lock()
	for id, tr := range lead.trans {
		ct := &countingTransport{Transport: tr}
		lead.trans[id], counters[id] = ct, ct
	}
	first := lead.lastSeqLocked() + 1
	lead.mu.Unlock()

	sm := c.sm(lead.ID())
	for i := 0; i < ops; i++ {
		p := fmt.Sprintf("hot-%d", i)
		data := []byte(fmt.Sprintf("%q", p))
		if err := sm.applyAndPropose(data, func() error { return lead.Propose(data) }); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		want = append(want, string(data))
	}
	c.waitConverged(want)

	for id, ct := range counters {
		ct.mu.Lock()
		own := make(map[uint64]bool)
		for _, req := range ct.sent {
			if len(req.Entries) == 1 && req.Entries[0].Seq == req.PrevSeq+1 {
				own[req.Entries[0].Seq] = true
			}
		}
		for seq := first; seq < first+ops; seq++ {
			if !own[seq] {
				t.Errorf("follower %s never received entry %d alone, anchored at %d", id, seq, seq-1)
			}
		}
		if extra := len(ct.sent) - ops; extra > ct.rejected {
			t.Errorf("follower %s: %d entry-carrying appends for %d proposals, only %d rejections to repair",
				id, len(ct.sent), ops, ct.rejected)
		}
		t.Logf("follower %s: %d entry-carrying appends, %d rejections", id, len(ct.sent), ct.rejected)
		ct.mu.Unlock()
	}
}

func TestLeaderKillFailoverPreservesAckedOps(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	var want []string
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("pre-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	c.stopNode(lead.ID()) // SIGKILL equivalent
	next := c.waitLeader()
	if next.ID() == lead.ID() {
		t.Fatal("dead node still leads")
	}
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("post-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	c.waitConverged(want) // live nodes only
	// The killed node restarts and rejoins with every acked op intact.
	c.startNode(lead.ID(), 99)
	c.waitConverged(want)
}

func TestDeposedLeaderTruncatesUnackedTail(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	if err := c.propose("committed-0"); err != nil {
		t.Fatal(err)
	}
	// Cut the leader off and push a proposal that can never reach quorum:
	// it lands in the old leader's journal but must not survive.
	c.net.isolate(c.ids, lead.ID(), true)
	c.sm(lead.ID()).Apply([]byte(`"orphan"`))
	err := lead.Propose([]byte(`"orphan"`))
	if err == nil {
		t.Fatal("isolated leader acked a proposal")
	}
	// The majority side elects a new leader and commits new entries.
	next := c.waitLeader(lead.ID())
	if next.ID() == lead.ID() {
		t.Fatal("isolated node claims leadership on the majority side")
	}
	want := quoted("committed-0")
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("new-%d", i)
		if perr := c.propose(p); perr != nil {
			t.Fatal(perr)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	// Heal: the deposed leader must truncate "orphan" and converge.
	c.net.isolate(c.ids, lead.ID(), false)
	c.waitConverged(want)
	for _, s := range c.sm(lead.ID()).state() {
		if s == `"orphan"` {
			t.Fatal("unacked tail survived the truncation")
		}
	}
}

func TestRestartResumesFromLocalJournal(t *testing.T) {
	c := newCluster(t, 4)
	c.waitLeader()
	var want []string
	for i := 0; i < 9; i++ {
		p := fmt.Sprintf("r-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	c.waitConverged(want)
	// Bounce every node in turn; each must come back byte-identical from
	// its own journal (snapshot + tail), then keep following.
	for i, id := range c.ids {
		c.stopNode(id)
		time.Sleep(10 * time.Millisecond)
		c.startNode(id, int64(100+i))
		c.waitConverged(want)
	}
	p := "after-bounces"
	if err := c.propose(p); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(append(want, fmt.Sprintf("%q", p)))
}

func TestProposeOnFollowerRedirects(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	for _, n := range c.live() {
		if n.ID() == lead.ID() {
			continue
		}
		err := n.Propose([]byte(`"x"`))
		var nl *NotLeaderError
		if !errors.As(err, &nl) {
			t.Fatalf("follower Propose error = %v, want NotLeaderError", err)
		}
		if nl.LeaderID != lead.ID() {
			t.Fatalf("redirect names %q, want %q", nl.LeaderID, lead.ID())
		}
	}
}

func TestMetricsMirrorRoleTermCommit(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	n, err := New(Config{
		ID:              "solo",
		Peers:           map[string]Transport{},
		Journal:         j,
		SM:              &fakeSM{},
		Heartbeat:       5 * time.Millisecond,
		ElectionTimeout: 20 * time.Millisecond,
		Metrics:         reg,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// A single-node cluster (quorum 1) elects itself and commits alone.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !n.Status().Ready {
		time.Sleep(2 * time.Millisecond)
	}
	if !n.Status().Ready {
		t.Fatal("solo node never became ready leader")
	}
	if err := n.Propose([]byte(`"solo-op"`)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(metricRole).Value(); got != float64(Leader) {
		t.Fatalf("%s = %v, want %v", metricRole, got, float64(Leader))
	}
	if got := reg.Gauge(metricTerm).Value(); got < 1 {
		t.Fatalf("%s = %v, want >= 1", metricTerm, got)
	}
	if got := reg.Gauge(metricCommitIndex).Value(); got < 2 {
		t.Fatalf("%s = %v, want >= 2 (barrier + op)", metricCommitIndex, got)
	}
	if got := reg.Counter(metricQuorumAcks).Value(); got != 1 {
		t.Fatalf("%s = %v, want 1", metricQuorumAcks, got)
	}
}

func TestMetricsOffIsAllocationFree(t *testing.T) {
	n := &Node{} // nil registry
	n.mu.Lock()
	defer n.mu.Unlock()
	if avg := testing.AllocsPerRun(100, func() {
		n.observeStateLocked()
		n.countQuorumAck()
		n.countCatchupSnapshot()
	}); avg != 0 {
		t.Fatalf("metrics-off path allocates %v per call", avg)
	}
}

// TestFollowersExportOnlyWhenACutCanLand: a follower learns an entry's
// commit only with the next append, so under back-to-back proposals its
// log end is almost always one past its commit index and a snapshot cut
// cannot land. The cadence check must see that before exporting the state
// machine, not after: each follower's exports stay within its cuts (plus
// one spare), where checking after the export cost one export per
// applied entry once the cadence was due. Its in-memory tail still ends
// bounded.
func TestFollowersExportOnlyWhenACutCanLand(t *testing.T) {
	const every, ops = 32, 3000
	c := newCluster(t, every)
	lead := c.waitLeader()
	for i := 0; i < ops; i++ {
		if err := c.propose(fmt.Sprintf("s-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.ids {
		if id == lead.ID() {
			continue
		}
		n, reg := c.node(id), c.regs[id]
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := n.Status()
			if st.LastSeq-st.SnapshotSeq <= 4*every {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %s: in-memory tail %d entries, want <= %d", id, st.LastSeq-st.SnapshotSeq, 4*every)
			}
			time.Sleep(2 * time.Millisecond)
		}
		exports := c.sm(id).exports.Load()
		cuts := reg.Counter(metricSnapshots, obs.L("result", "cut")).Value()
		skipped := reg.Counter(metricSnapshots, obs.L("result", "skipped")).Value()
		t.Logf("follower %s: %d exports, %v cuts, %v skipped", id, exports, cuts, skipped)
		if float64(exports) > cuts+1 {
			t.Fatalf("follower %s exported its state %d times for %v cuts", id, exports, cuts)
		}
	}
}

// TestSnapshotEveryZeroCutsNone: a SnapshotEvery at or below 0 means no
// snapshots, the same as a journal's -snapshot-every 0, so a log that
// runs well past 256 entries is never cut and no node exports its state.
func TestSnapshotEveryZeroCutsNone(t *testing.T) {
	const ops = 300
	c := newCluster(t, 0)
	c.waitLeader()
	var want []string
	for i := 0; i < ops; i++ {
		p := fmt.Sprintf("z-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	c.waitConverged(want)
	// A cut runs in the background after the apply that makes it due.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, id := range c.ids {
			if st, exports := c.node(id).Status(), c.sm(id).exports.Load(); st.SnapshotSeq != 0 || exports != 0 {
				t.Fatalf("node %s: snapshot at seq %d, %d state exports, want none", id, st.SnapshotSeq, exports)
			}
		}
	}
}

// TestStatusReportsHaltedApplies: a follower whose state machine refuses
// a committed entry stops applying, and its Status says why; the next
// commit retries the entry, and once it applies the report clears.
func TestStatusReportsHaltedApplies(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	var follower string
	for _, id := range c.ids {
		if id != lead.ID() {
			follower = id
			break
		}
	}
	c.sm(follower).setApplyErr(errors.New("disk on fire"))
	if err := c.propose("refused"); err != nil {
		t.Fatal(err)
	}
	n := c.node(follower)
	deadline := time.Now().Add(5 * time.Second)
	for n.Status().ApplyError == "" {
		if time.Now().After(deadline) {
			t.Fatalf("follower %s: Status reports no apply error: %+v", follower, n.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := n.Status()
	if !strings.Contains(st.ApplyError, "disk on fire") || st.LastApplied >= st.CommitIndex {
		t.Fatalf("follower %s: apply error %q at applied %d of commit %d, want the refusal with applies behind", follower, st.ApplyError, st.LastApplied, st.CommitIndex)
	}

	c.sm(follower).setApplyErr(nil)
	if err := c.propose("after"); err != nil {
		t.Fatal(err)
	}
	c.waitConverged([]string{`"refused"`, `"after"`})
	for deadline := time.Now().Add(5 * time.Second); n.Status().ApplyError != ""; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower %s: apply error %q after applies resumed", follower, n.Status().ApplyError)
		}
	}
}

// TestSnapshotFailuresAreCounted: a snapshot whose state export fails
// cuts nothing and counts as result "failed".
func TestSnapshotFailuresAreCounted(t *testing.T) {
	c := newCluster(t, 2)
	for _, id := range c.ids {
		c.sm(id).setSnapErr(errors.New("export refused"))
	}
	lead := c.waitLeader()
	for i := 0; i < 4; i++ {
		if err := c.propose(fmt.Sprintf("f-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := c.regs[lead.ID()]
	for deadline := time.Now().Add(5 * time.Second); reg.Counter(metricSnapshots, obs.L("result", "failed")).Value() == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("leader counted no failed snapshot")
		}
	}
	if st := lead.Status(); st.SnapshotSeq != 0 {
		t.Fatalf("leader cut a snapshot at seq %d from a failed export", st.SnapshotSeq)
	}
}

// TestLeaderCountsItselfOnlyWhenSynced: a leader writes its own copy of
// an entry beside the follower round and fsyncs it there, so until that
// fsync returns its copy is not durable and must not count toward the
// quorum. With entry 5 unsynced on the leader and held by one follower,
// only entry 4 has a durable quorum.
func TestLeaderCountsItselfOnlyWhenSynced(t *testing.T) {
	n := &Node{
		cfg:   Config{ID: "a"},
		role:  Leader,
		term:  2,
		ready: true,
		conf:  Membership{Members: []Member{{ID: "a", Voter: true}, {ID: "b", Voter: true}, {ID: "c", Voter: true}}},
		match: map[string]uint64{"b": 5},
	}
	for seq := uint64(1); seq <= 5; seq++ {
		n.tail = append(n.tail, Entry{Seq: seq, Term: 2})
	}
	n.synced = 4
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advanceCommitLocked()
	if n.commitIndex != 4 {
		t.Fatalf("commit index %d with the leader synced to 4, want 4", n.commitIndex)
	}
	// Every append response runs this; it must not allocate.
	if avg := testing.AllocsPerRun(100, n.advanceCommitLocked); avg != 0 {
		t.Fatalf("advanceCommitLocked allocates %v per call", avg)
	}
	n.synced = 5
	n.advanceCommitLocked()
	if n.commitIndex != 5 {
		t.Fatalf("commit index %d once the leader synced 5, want 5", n.commitIndex)
	}
}

// TestFollowerSyncsOncePerAppend: a multi-entry AppendEntries to a
// SyncAlways follower (catch-up after a restart, pipelined proposals)
// costs one fsync for the whole request, acks the new log end, and the
// entries are on disk after a reopen.
func TestFollowerSyncsOncePerAppend(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		ID:              "b",
		Peers:           map[string]Transport{"a": &localTransport{net: newTestNet(), from: "b", to: "a", resolve: func(string) *Node { return nil }}},
		Journal:         j,
		SM:              &fakeSM{},
		Heartbeat:       time.Hour,
		ElectionTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	fsyncs := reg.Histogram("sparcle_journal_fsync_seconds", nil)
	before := fsyncs.Count()
	req := &AppendRequest{Term: 1, LeaderID: "a"}
	for seq := uint64(1); seq <= 3; seq++ {
		req.Entries = append(req.Entries, Entry{Seq: seq, Term: 1, Data: json.RawMessage(fmt.Sprintf(`"op-%d"`, seq))})
	}
	resp, err := n.HandleAppendEntries(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Success || resp.LastSeq != 3 {
		t.Fatalf("append response %+v, want success at LastSeq 3", resp)
	}
	if got := fsyncs.Count() - before; got != 1 {
		t.Fatalf("a 3-entry append ran %d fsyncs, want 1", got)
	}
	n.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, err = journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, recs, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("recovered %d records after reopen, want entries 1-3", len(recs))
	}
}
