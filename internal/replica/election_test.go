package replica

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// The boot tests run at a one-second election timeout, where a boot
// deadline of jitter alone and one of timeout plus jitter cannot be
// confused. Node seeds 6, 7 and 8 draw first jitters of 122ms, 537ms
// and 836ms: the earliest sits well inside the timeout, so a bound on
// time measures the boot rule and not the host.

// bootSeed is node a's seed; b and c take the next two.
const bootSeed = 6

// TestBootElectsWithinOneTimeout: a fresh cluster has no leader to hear
// first, so each node's first deadline is its jitter alone and a ready
// leader exists before one election timeout has passed. Under the
// [1x, 2x) deadline every later re-arm uses, that is impossible. The
// node with the earliest jitter wins the first term.
func TestBootElectsWithinOneTimeout(t *testing.T) {
	c := newIdleCluster(t, -1)
	c.electionTimeout = time.Second
	start := time.Now()
	for i, id := range c.ids {
		c.startNode(id, bootSeed+int64(i))
	}
	lead := c.waitLeader()
	took := time.Since(start)
	t.Logf("leader %s ready %v after boot", lead.ID(), took)
	if took >= c.electionTimeout {
		t.Fatalf("first ready leader after %v, want < %v", took, c.electionTimeout)
	}
	if st := lead.Status(); lead.ID() != "a" || st.Term != 1 {
		t.Fatalf("leader %s in term %d, want a (the earliest jitter) in term 1", lead.ID(), st.Term)
	}
}

// TestBootIntoServingClusterKeepsTermAndLeader: a follower restarting
// into a serving cluster canvasses after its jitter alone. The leader's
// sends to it are cut (its own requests are not), so no heartbeat can
// pre-empt that canvass. Both voters refuse it: the leader leads, and
// the other follower heard the leader within a timeout. No term moves,
// the leader keeps committing, and the follower catches up once the
// leader reaches it.
func TestBootIntoServingClusterKeepsTermAndLeader(t *testing.T) {
	c := newIdleCluster(t, -1)
	c.electionTimeout = time.Second
	for i, id := range c.ids {
		c.startNode(id, bootSeed+int64(i))
	}
	lead := c.waitLeader()
	term := lead.Status().Term
	if err := c.propose("before"); err != nil {
		t.Fatal(err)
	}
	f := "b"
	if lead.ID() == f {
		f = "c"
	}
	c.stopNode(f)
	c.net.setCutFrom(lead.ID(), f, true)
	c.startNode(f, 12) // first jitter 44ms
	rounds := c.regs[f].Counter(metricPreVotes)
	waitFor(t, "the restarted follower's canvass", func() bool { return rounds.Value() >= 1 })
	if err := c.propose("during"); err != nil {
		t.Fatal(err)
	}
	c.net.setCutFrom(lead.ID(), f, false)
	if err := c.propose("after"); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(quoted("before", "during", "after"))
	for _, n := range c.live() {
		if st := n.Status(); st.Term != term || st.Leader != lead.ID() {
			t.Fatalf("node %s: term %d leader %q after the restart, want term %d leader %s",
				n.ID(), st.Term, st.Leader, term, lead.ID())
		}
	}
}

// TestBootBeforePeersElectsThroughReArm: a node booting while its peers
// are down spends its jitter-only deadline on a canvass nobody answers,
// then re-arms with the full floor like after any lost canvass. Peers
// that start once its jitter has expired elect a leader in the first
// term.
func TestBootBeforePeersElectsThroughReArm(t *testing.T) {
	c := newIdleCluster(t, -1)
	c.electionTimeout = time.Second
	c.startNode("a", bootSeed)
	rounds := c.regs["a"].Counter(metricPreVotes)
	waitFor(t, "a's boot canvass", func() bool { return rounds.Value() >= 1 })
	time.Sleep(c.electionTimeout / 4)
	if got := rounds.Value(); got != 1 {
		t.Fatalf("%v canvass rounds within a quarter timeout of the first, want 1 (the re-arm keeps the floor)", got)
	}
	for i, id := range c.ids[1:] {
		c.startNode(id, bootSeed+1+int64(i))
	}
	lead := c.waitLeader()
	for _, n := range c.live() {
		if st := n.Status(); st.Term > 1 {
			t.Fatalf("node %s in term %d, want at most 1", n.ID(), st.Term)
		}
	}
	if err := c.propose("x"); err != nil {
		t.Fatal(err)
	}
	c.waitConverged([]string{fmt.Sprintf("%q", "x")})
	t.Logf("leader %s in term %d", lead.ID(), lead.Status().Term)
}

// TestBootWritesNoSnapshot: a fresh node writes no snapshot and exports
// nothing at boot, since its state machine restored from nothing is the
// genesis state. Restarted before any snapshot, a follower restores from
// nothing plus its own log and keeps following.
func TestBootWritesNoSnapshot(t *testing.T) {
	c := newCluster(t, -1)
	lead := c.waitLeader()
	for _, id := range c.ids {
		snaps, _ := filepath.Glob(filepath.Join(c.dirs[id], "snap-*"))
		if exports := c.sm(id).exports.Load(); len(snaps) > 0 || exports != 0 {
			t.Fatalf("node %s booted with snapshots %v and %d exports, want none", id, snaps, exports)
		}
	}
	for _, p := range []string{"x", "y"} {
		if err := c.propose(p); err != nil {
			t.Fatal(err)
		}
	}
	c.waitConverged(quoted("x", "y"))
	f := "b"
	if lead.ID() == f {
		f = "c"
	}
	c.stopNode(f)
	c.startNode(f, 9)
	if err := c.propose("z"); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(quoted("x", "y", "z"))
}
