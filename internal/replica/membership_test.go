package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sparcle/internal/journal"
)

// waitMemberVoter blocks until observer's committed configuration marks
// id with the wanted voter flag (present=false waits for removal).
func waitMemberStatus(t *testing.T, n *Node, id string, present, voter bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := n.Status()
		var found *MemberStatus
		for i := range st.Members {
			if st.Members[i].ID == id {
				found = &st.Members[i]
				break
			}
		}
		if present == (found != nil) && (found == nil || found.Voter == voter) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("member %s never reached present=%v voter=%v on %s: %+v", id, present, voter, n.ID(), n.Status().Members)
}

// confSeqs returns every live node's committed configuration sequence.
func confSeqs(c *cluster) map[string]uint64 {
	out := make(map[string]uint64)
	for _, n := range c.live() {
		out[n.ID()] = n.Status().ConfSeq
	}
	return out
}

// TestAddLearnerCatchesUpAndPromotes is the add-under-load fault: a
// fresh node joins a loaded cluster with an empty journal, stays a
// learner while it cannot catch up, is repaired through the snapshot
// path once reachable, and is promoted to voter only then.
func TestAddLearnerCatchesUpAndPromotes(t *testing.T) {
	c := newCluster(t, 3) // aggressive compaction: joiner must take an install
	lead := c.waitLeader()
	var want []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("pre-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	// Make sure the leader has compacted past seq 1 so catch-up cannot
	// stream from seq 1.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.node(lead.ID()).Status().SnapshotSeq <= 1 {
		time.Sleep(5 * time.Millisecond)
	}

	c.startJoinNode("d", 42)
	c.net.isolate(c.ids, "d", true) // joiner unreachable: must stay a learner
	if err := lead.AddMember("d", "addr-d"); err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	if err := lead.AddMember("d", "addr-d"); err != nil {
		t.Fatalf("AddMember retry (idempotent): %v", err)
	}
	waitMemberStatus(t, lead, "d", true, false)
	time.Sleep(300 * time.Millisecond) // several election timeouts of lag
	st := c.node(lead.ID()).Status()
	for _, m := range st.Members {
		if m.ID == "d" && m.Voter {
			t.Fatal("unreachable learner was promoted to voter")
		}
	}
	if got := c.node("d").Status().Term; got != 0 {
		t.Fatalf("isolated joiner inflated its term to %d", got)
	}

	// Heal under load: keep writing while the learner catches up.
	stopLoad := make(chan struct{})
	var loadMu sync.Mutex
	var loaded []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			p := fmt.Sprintf("load-%d", i)
			if err := c.propose(p); err != nil {
				return
			}
			loadMu.Lock()
			loaded = append(loaded, fmt.Sprintf("%q", p))
			loadMu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	c.net.isolate(c.ids, "d", false)
	waitMemberStatus(t, c.node(lead.ID()), "d", true, true) // promoted once caught up
	close(stopLoad)
	wg.Wait()

	// The joiner's own compaction is disabled, so a nonzero snapshot base
	// proves the leader repaired it through the snapshot-install path.
	if base := c.node("d").Status().SnapshotSeq; base <= 1 {
		t.Fatalf("joiner snapshot base %d, want > 1 (snapshot catch-up)", base)
	}
	loadMu.Lock()
	want = append(want, loaded...)
	loadMu.Unlock()
	c.waitConverged(want)

	// All nodes agree on the final configuration. (Followers fold a
	// committed conf entry when the next heartbeat advances LeaderCommit,
	// so agreement trails state convergence by up to one heartbeat.)
	seqDeadline := time.Now().Add(5 * time.Second)
	for {
		seqs := confSeqs(c)
		agreed := true
		for _, seq := range seqs {
			if seq != seqs[lead.ID()] {
				agreed = false
			}
		}
		if agreed {
			break
		}
		if time.Now().After(seqDeadline) {
			t.Fatalf("conf seq disagreement: %v", seqs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the new voter counts: writes survive killing one ORIGINAL node.
	c.stopNode(lead.ID())
	c.waitLeader()
	if err := c.propose("post-kill"); err != nil {
		t.Fatalf("4-voter cluster lost a node and stalled: %v", err)
	}
}

// TestRemoveLeaderHandsOff is the remove-the-leader fault: removing the
// current leader commits under the old quorum, acknowledges the caller,
// hands leadership off, and loses no acked write.
func TestRemoveLeaderHandsOff(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	var want []string
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("pre-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	if err := lead.RemoveMember(lead.ID()); err != nil {
		t.Fatalf("RemoveMember(self): %v", err)
	}
	st := lead.Status()
	if st.Role == "leader" {
		t.Fatal("removed leader still leads")
	}
	if st.Voter {
		t.Fatal("removed leader still counts itself a voter")
	}
	// The survivors elect among themselves and keep accepting writes.
	c.stopNode(lead.ID())
	next := c.waitLeader()
	if next.ID() == lead.ID() {
		t.Fatal("removed node re-elected")
	}
	if got := len(next.Status().Members); got != 2 {
		t.Fatalf("surviving configuration has %d members, want 2", got)
	}
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("post-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	c.waitConverged(want)
}

// TestCrashMidConfigChange is the crash-mid-config-change fault: a
// leader that crashes (here: is partitioned, then healed) after
// journaling an uncommitted membership change must roll it back via the
// ordinary conflict-truncation path, leaving every survivor with the
// same committed configuration.
func TestCrashMidConfigChange(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	if err := c.propose("committed-0"); err != nil {
		t.Fatal(err)
	}
	// Isolate the leader, then ask it to add a member: the configuration
	// entry lands in its journal but can never commit.
	c.net.isolate(c.ids, lead.ID(), true)
	err := lead.AddMember("ghost", "addr-ghost")
	if err == nil {
		t.Fatal("isolated leader committed a membership change")
	}
	var nl *NotLeaderError
	if !errors.As(err, &nl) && !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("AddMember on isolated leader = %v, want NotLeaderError or ErrNoQuorum", err)
	}
	// The majority side continues without ever hearing of "ghost".
	next := c.waitLeader(lead.ID())
	want := quoted("committed-0")
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("new-%d", i)
		if perr := c.propose(p); perr != nil {
			t.Fatal(perr)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	for _, m := range next.Status().Members {
		if m.ID == "ghost" {
			t.Fatal("uncommitted member leaked to the majority side")
		}
	}
	// Heal: truncation must cut the orphaned configuration entry and
	// roll the old leader's membership back to the boot configuration.
	c.net.isolate(c.ids, lead.ID(), false)
	c.waitConverged(want)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := lead.Status()
		if st.ConfSeq == 0 && !st.PendingConf && len(st.Members) == 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := lead.Status()
	if st.ConfSeq != 0 || st.PendingConf || len(st.Members) != 3 {
		t.Fatalf("old leader's configuration not rolled back: %+v", st)
	}
	for id, seq := range confSeqs(c) {
		if seq != 0 {
			t.Fatalf("node %s conf seq %d after rollback, want 0", id, seq)
		}
	}
	// A crash-restart on top of the healed journal recovers the same
	// membership (the truncated entry is gone from disk too).
	c.stopNode(lead.ID())
	n := c.startNode(lead.ID(), 77)
	c.waitConverged(want)
	if st := n.Status(); st.ConfSeq != 0 || len(st.Members) != 3 {
		t.Fatalf("restarted node recovered configuration %+v, want boot 3-member", st)
	}
}

// TestPreVotePartitionedNodeDoesNotInflateTerm is the pre-vote fault: a
// follower cut off from the cluster keeps running election timeouts, but
// its canvass rounds never increment any term — so on rejoin it cannot
// depose the healthy leader.
func TestPreVotePartitionedNodeDoesNotInflateTerm(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	baseTerm := lead.Status().Term
	var cut string
	for _, id := range c.ids {
		if id != lead.ID() {
			cut = id
			break
		}
	}
	c.net.isolate(c.ids, cut, true)
	var want []string
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("op-%d", i)
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%q", p))
	}
	// Many election timeouts' worth of futile canvassing.
	time.Sleep(500 * time.Millisecond)
	if got := c.node(cut).Status().Term; got != baseTerm {
		t.Fatalf("partitioned node moved its term %d -> %d during canvass", baseTerm, got)
	}
	c.net.isolate(c.ids, cut, false)
	c.waitConverged(want)
	if got := lead.Status(); got.Role != "leader" || got.Term != baseTerm {
		t.Fatalf("healthy leader disturbed by rejoining node: role=%s term=%d (was %d)", got.Role, got.Term, baseTerm)
	}
}

// TestIsolatedLeaderStepsDownAndFailsWaiters is the check-quorum fault
// plus the deposed-waiter satellite: an isolated leader must step down
// within two election timeouts, and a Propose parked on it must fail
// promptly with the redirect error — NOT hang until the propose timeout.
func TestIsolatedLeaderStepsDownAndFailsWaiters(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	if err := c.propose("pre"); err != nil {
		t.Fatal(err)
	}
	c.net.isolate(c.ids, lead.ID(), true)
	start := time.Now()
	c.sm(lead.ID()).Apply([]byte(`"parked"`))
	err := lead.Propose([]byte(`"parked"`))
	elapsed := time.Since(start)
	var nl *NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("parked Propose error = %v (after %v), want NotLeaderError redirect", err, elapsed)
	}
	// Well under the 700ms propose timeout: check-quorum fired, the
	// waiter did not hang. Bound: 2 election timeouts (120ms) plus
	// scheduling slack.
	if limit := 2*60*time.Millisecond + 250*time.Millisecond; elapsed > limit {
		t.Fatalf("parked Propose failed after %v, want < %v (check-quorum step-down)", elapsed, limit)
	}
	if lead.Status().Role == "leader" {
		t.Fatal("isolated leader did not step down")
	}
	// The majority elected a replacement; the healed node truncates its
	// orphan and converges.
	next := c.waitLeader(lead.ID())
	if next.ID() == lead.ID() {
		t.Fatal("isolated node still claims leadership on the majority side")
	}
	if err := c.propose("post"); err != nil {
		t.Fatal(err)
	}
	c.net.isolate(c.ids, lead.ID(), false)
	c.waitConverged(quoted("pre", "post"))
}

// TestJoinNodeStaysPassive: a Join-mode node with no cluster to talk to
// must sit quietly as a memberless follower — no self-election, no term
// churn — until a leader admits it.
func TestJoinNodeStaysPassive(t *testing.T) {
	c := &cluster{
		t:        t,
		net:      newTestNet(),
		dirs:     make(map[string]string),
		nodes:    make(map[string]*Node),
		sms:      make(map[string]*fakeSM),
		journals: make(map[string]*journal.Journal),
	}
	t.Cleanup(c.stopAll)
	n := c.startJoinNode("lonely", 7)
	time.Sleep(400 * time.Millisecond) // many election timeouts
	st := n.Status()
	if st.Role != "follower" || st.Term != 0 {
		t.Fatalf("joiner self-elected: role=%s term=%d", st.Role, st.Term)
	}
	if st.Voter || len(st.Members) != 0 {
		t.Fatalf("joiner invented a configuration: %+v", st)
	}
}

// TestConfChangeInFlightRejected: only one membership change may be
// pending; a second is refused with ErrConfChangeInFlight rather than
// queued (which could reorder into an unsafe double change).
func TestConfChangeInFlightRejected(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	// Cut ONE follower so changes still commit (quorum 2) but slowly
	// enough to observe the pending window — actually with both
	// followers live commits are near-instant, so instead test the
	// in-flight window by cutting BOTH followers and racing two changes.
	c.net.isolate(c.ids, lead.ID(), true)
	done := make(chan error, 1)
	go func() { done <- lead.AddMember("x", "addr-x") }()
	// Wait until the first change is journaled (pending).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !lead.Status().PendingConf {
		time.Sleep(1 * time.Millisecond)
	}
	if !lead.Status().PendingConf {
		t.Skip("first change never reached the pending state (leader already deposed)")
	}
	err := lead.AddMember("y", "addr-y")
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		t.Skip("check-quorum deposed the leader before the second change") // rare scheduling race
	}
	if !errors.Is(err, ErrConfChangeInFlight) {
		t.Fatalf("second change error = %v, want ErrConfChangeInFlight", err)
	}
	c.net.isolate(c.ids, lead.ID(), false)
	<-done
}

// TestInstallReplacesTailConfigurations: a follower tracks the
// configuration entries its tail holds, so the committed configuration
// is re-derived without scanning the tail. A snapshot install replaces
// the whole tail, those entries included: the configuration is then the
// snapshot's, and a configuration entry shipped after it folds in on
// commit like any other.
func TestInstallReplacesTailConfigurations(t *testing.T) {
	n := loneFollower(t)
	members := func(ids ...string) []Member {
		out := []Member{{ID: "follower", Voter: true}}
		for _, id := range ids {
			out = append(out, Member{ID: id, Voter: true})
		}
		return out
	}
	resp, err := n.HandleAppendEntries(&AppendRequest{Term: 1, LeaderID: "ldr", LeaderCommit: 2, Entries: []Entry{
		{Seq: 1, Term: 1, Data: []byte(`"a"`)},
		{Seq: 2, Term: 1, Conf: &Membership{Seq: 2, Members: members("ldr")}},
	}})
	if err != nil || !resp.Success {
		t.Fatalf("append: %+v, %v", resp, err)
	}
	if st := n.Status(); st.ConfSeq != 2 {
		t.Fatalf("committed configuration %d, want 2", st.ConfSeq)
	}
	ir, err := n.HandleInstallSnapshot(&InstallSnapshotRequest{Term: 1, LeaderID: "ldr", SnapSeq: 5, SnapTerm: 1,
		SnapConf: Membership{Seq: 4, Members: members("ldr", "x")}, State: []byte(`{}`),
		Entries: []Entry{{Seq: 6, Term: 1, Data: []byte(`"b"`)}}, LeaderCommit: 6})
	if err != nil || !ir.Success {
		t.Fatalf("install: %+v, %v", ir, err)
	}
	if st := n.Status(); st.ConfSeq != 4 || st.PendingConf {
		t.Fatalf("after the install: configuration %d pending %v, want the snapshot's 4", st.ConfSeq, st.PendingConf)
	}
	resp, err = n.HandleAppendEntries(&AppendRequest{Term: 1, LeaderID: "ldr", PrevSeq: 6, PrevTerm: 1, LeaderCommit: 6,
		Entries: []Entry{{Seq: 7, Term: 1, Conf: &Membership{Seq: 7, Members: members("ldr")}}}})
	if err != nil || !resp.Success {
		t.Fatalf("append after the install: %+v, %v", resp, err)
	}
	if st := n.Status(); st.ConfSeq != 4 || !st.PendingConf {
		t.Fatalf("configuration %d pending %v, want 4 with 7 pending", st.ConfSeq, st.PendingConf)
	}
	resp, err = n.HandleAppendEntries(&AppendRequest{Term: 1, LeaderID: "ldr", PrevSeq: 7, PrevTerm: 1, LeaderCommit: 7})
	if err != nil || !resp.Success {
		t.Fatalf("commit heartbeat: %+v, %v", resp, err)
	}
	if st := n.Status(); st.ConfSeq != 7 || st.PendingConf || len(st.Members) != 2 {
		t.Fatalf("configuration %d pending %v with %d members, want 7 committed with 2", st.ConfSeq, st.PendingConf, len(st.Members))
	}
}
