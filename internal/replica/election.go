package replica

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"time"
)

// ErrStopped is returned for operations on a stopped node.
var ErrStopped = errors.New("replica: node stopped")

// ErrNotReady is returned by Propose on a leader whose term barrier has
// not committed yet. It is retryable: either the barrier commits shortly
// or the node is deposed and redirects.
var ErrNotReady = errors.New("replica: leader not ready")

// ErrNoQuorum is returned when a proposal cannot reach quorum before the
// propose timeout (e.g. both followers down or partitioned away).
var ErrNoQuorum = errors.New("replica: no quorum")

// NotLeaderError redirects a proposal to the current leader (LeaderID
// may be empty while an election is in flight).
type NotLeaderError struct {
	LeaderID string
}

func (e *NotLeaderError) Error() string {
	if e.LeaderID == "" {
		return "replica: not the leader (no leader known)"
	}
	return "replica: not the leader (leader is " + e.LeaderID + ")"
}

// resetElectionLocked renews this node's view of the leadership lease:
// nothing heard for a randomized [1x, 2x) election timeout means the
// lease expired and an election starts. (Start arms the first deadline
// at the jitter alone.)
func (n *Node) resetElectionLocked(now time.Time) {
	n.lastHeard = now
	n.rearmElectionLocked(now)
}

// rearmElectionLocked pushes the election deadline WITHOUT refreshing
// lastHeard. Canvass pacing must use this: if a node's own pre-vote
// rounds renewed its leader lease, every follower of a dead leader would
// deny every other follower's canvass forever and no election could
// start.
func (n *Node) rearmElectionLocked(now time.Time) {
	jitter := time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
	n.electionDeadline = now.Add(n.cfg.ElectionTimeout + jitter)
}

func (n *Node) becomeFollowerLocked() {
	n.role = Follower
	n.ready = false
	n.barrier = 0
	if n.promoteApply != nil {
		close(n.promoteApply) // wakes promote, which finds the role gone
		n.promoteApply = nil
	}
	n.notifyWaitersLocked()
	n.observeStateLocked()
}

// stepDownLocked adopts a higher term and reverts to follower.
func (n *Node) stepDownLocked(term uint64) error {
	if term > n.term {
		n.term = term
		n.votedFor = ""
		if err := n.persistMetaLocked(); err != nil {
			return err
		}
	}
	n.becomeFollowerLocked()
	return nil
}

// outrankedLocked steps down when a peer's reply carries a higher term
// than ours, and reports whether it did.
func (n *Node) outrankedLocked(term uint64) bool {
	if term <= n.term {
		return false
	}
	_ = n.stepDownLocked(term)
	return true
}

// notifyWaitersLocked completes parked proposals: committed ones succeed,
// and any waiter whose term ended fails with a redirect error (its entry
// may yet commit under the new leader, but this node can no longer
// promise it).
func (n *Node) notifyWaitersLocked() {
	if len(n.waiters) == 0 {
		return
	}
	deposed := n.role != Leader
	keep := n.waiters[:0]
	for _, w := range n.waiters {
		switch {
		case deposed || w.term != n.term:
			w.c <- &NotLeaderError{LeaderID: n.leaderID}
		case w.seq <= n.commitIndex:
			w.c <- nil
		default:
			keep = append(keep, w)
		}
	}
	n.waiters = keep
}

// tickLoop drives heartbeats (leader) and election timeouts (others).
func (n *Node) tickLoop() {
	defer n.wg.Done()
	period := n.cfg.Heartbeat / 2
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-t.C:
			n.tick()
		}
	}
}

func (n *Node) tick() {
	now := time.Now()
	n.mu.Lock()
	switch {
	case n.role == Leader:
		if !n.checkQuorumLocked(now) { // a leader that stepped down sends no heartbeat
			n.replicateAllLocked()
			n.observePeerHealthLocked()
		}
	case !now.After(n.electionDeadline):
	case !n.isVoterLocked(n.cfg.ID):
		// Learners and un-admitted joiners never elect; just re-arm the
		// timer so a later promotion starts fresh.
		n.rearmElectionLocked(now)
	default:
		n.startPreVoteLocked() // unlocks
		return
	}
	n.mu.Unlock()
}

// checkQuorumLocked is the leader's liveness self-test: if a quorum of
// voters (counting itself) has been silent for a full election timeout,
// the leader is on the minority side of a partition and a new leader has
// likely risen beyond it — step down so parked proposals fail with a
// redirect instead of blackholing until the client gives up. Returns
// true when the node stepped down.
func (n *Node) checkQuorumLocked(now time.Time) bool {
	if now.Sub(n.leaseStart) < n.cfg.ElectionTimeout {
		return false // fresh leader: one timeout of grace to hear from peers
	}
	heard := 1 // self (leaders are always voters under the committed conf)
	for _, m := range n.conf.Members {
		if !m.Voter || m.ID == n.cfg.ID {
			continue
		}
		if lc, ok := n.lastContact[m.ID]; ok && now.Sub(lc) <= n.cfg.ElectionTimeout {
			heard++
		}
	}
	if heard >= n.quorumLocked() {
		return false
	}
	n.countCheckQuorumStepdown()
	n.leaderID = ""
	n.becomeFollowerLocked()
	n.resetElectionLocked(now)
	return true
}

// startPreVoteLocked canvasses the voters with a non-binding vote
// request for term+1 WITHOUT incrementing the term. Only if a quorum
// signals it would grant does the real election start — so a partitioned
// or rebooting node that cannot win keeps knocking at its own term
// instead of inflating the cluster's and deposing a healthy leader on
// rejoin. Called with n.mu held; releases it.
func (n *Node) startPreVoteLocked() {
	n.rearmElectionLocked(time.Now())
	n.countPreVoteRound()
	term := n.term
	n.canvassLocked(term+1, true, func() bool {
		// A leader that surfaced while the canvass was in flight must not
		// be disrupted by starting the real election now.
		return n.term == term && n.role != Leader && n.isVoterLocked(n.cfg.ID) &&
			!(n.leaderID != "" && time.Since(n.lastHeard) < n.cfg.ElectionTimeout)
	}, n.startElectionLocked)
}

// startElectionLocked moves to candidate in term+1 and solicits votes.
// Reached only through a successful pre-vote canvass. Called with n.mu
// held; releases it.
func (n *Node) startElectionLocked() {
	n.term++
	n.votedFor = n.cfg.ID
	if err := n.persistMetaLocked(); err != nil {
		// Candidacy without a durable self-vote risks a double vote
		// after a crash; skip this round and retry at the next timeout.
		n.term--
		n.votedFor = ""
		n.resetElectionLocked(time.Now())
		n.mu.Unlock()
		return
	}
	n.role = Candidate
	n.leaderID = ""
	n.ready = false
	n.resetElectionLocked(time.Now())
	n.observeStateLocked()
	term := n.term
	n.canvassLocked(term, false, func() bool { return n.role == Candidate && n.term == term }, func() {
		n.becomeLeaderLocked(term)
		n.mu.Unlock()
	})
}

// canvassLocked asks every other voter for its vote in term on this
// node's log (a non-binding one when preVote) and calls won once a
// quorum, counting this node, has granted while valid still holds — at
// once when this node is the only voter. A reply from a higher term
// steps the node down instead. Called with n.mu held; releases it (won
// runs with it held and releases it).
func (n *Node) canvassLocked(term uint64, preVote bool, valid func() bool, won func()) {
	quorum := n.quorumLocked()
	if quorum == 1 {
		won()
		return
	}
	last := n.lastSeqLocked()
	lastTerm, _ := n.termAtLocked(last)
	req := &VoteRequest{Term: term, CandidateID: n.cfg.ID, LastSeq: last, LastTerm: lastTerm, PreVote: preVote}
	voters := n.voterPeersLocked()
	n.mu.Unlock()

	var granted atomic.Int32
	granted.Store(1) // self
	for _, tr := range voters {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
			defer cancel()
			resp, err := tr.RequestVote(ctx, req)
			if err != nil {
				return
			}
			n.mu.Lock()
			if !n.outrankedLocked(resp.Term) && resp.Granted && valid() && int(granted.Add(1)) == quorum {
				won()
				return
			}
			n.mu.Unlock()
		}()
	}
}

// becomeLeaderLocked wins the candidate's term and starts promotion: the
// new leader must first commit a no-op barrier in its own term before
// acknowledging any proposal (a prior-term entry is only provably
// durable once an entry of the current term commits on top of it).
func (n *Node) becomeLeaderLocked(term uint64) {
	n.role = Leader
	n.leaderID = n.cfg.ID
	n.ready = false
	clear(n.match)
	now := time.Now()
	n.leaseStart = now
	for id := range n.trans {
		n.lastContact[id] = now
		n.prog[id] = &progress{next: n.lastSeqLocked() + 1} // the barrier comes next
	}
	n.observeStateLocked()
	go n.promote(term)
}

// promote finishes a leadership transition off the lock: bring the local
// state machine to the log end (entries past the old commit index are
// locally durable and, by the election rule, the most up-to-date log in
// the quorum — they become committed once the barrier does), then append
// and replicate the term barrier.
func (n *Node) promote(term uint64) {
	// Let the apply loop (the only SM writer) run past commitIndex; it
	// closes applied once it reaches the log end.
	n.mu.Lock()
	if n.role != Leader || n.term != term {
		n.mu.Unlock()
		return
	}
	applied := make(chan struct{})
	n.promoteApply, n.promoteTo = applied, n.lastSeqLocked()
	n.mu.Unlock()
	n.kickApply()
	select {
	case <-n.stopc:
		return
	case <-applied:
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Leader || n.term != term {
		return
	}
	// Barrier entry: a no-op stamped with the new term.
	e := Entry{Seq: n.lastSeqLocked() + 1, Term: term, Nop: true}
	if err := n.appendEntryLocked(e, false); err != nil {
		n.becomeFollowerLocked()
		return
	}
	n.barrier = e.Seq
	n.lastApplied = e.Seq   // no-op: the state machine is unaffected
	n.advanceCommitLocked() // self-count (commits immediately at quorum 1)
	n.replicateAllLocked()
}

// replicateAllLocked sends every peer what it lacks: on a caught-up peer
// the newest entry, or nothing at all — the heartbeat.
func (n *Node) replicateAllLocked() {
	for id := range n.trans {
		n.replicateLocked(id)
	}
}

// progress is the leader's view of one peer's send path in its term.
type progress struct {
	next       uint64 // the cursor: the first entry not yet sent
	inflight   int    // sends awaiting their reply
	installing bool   // one of them is a snapshot install
}

// replicateLocked is the leader's one send path to peer id: every entry
// from the peer's cursor to the log end, anchored at the entry before
// the cursor — on a caught-up peer just the entry being proposed, and
// with nothing to carry, the lease probe. The cursor then moves to the
// log end, so back-to-back proposals each send their own entry without
// waiting for replies; a rejection moves it back (onReplyLocked). A
// probe is skipped while a send is in flight: its reply is coming, and
// a probe could overtake it and be refused. A cursor at or below the
// snapshot base points at a compacted entry: the peer gets the snapshot
// and the whole tail in one install instead, and nothing else until that
// install returns.
func (n *Node) replicateLocked(id string) {
	tr := n.trans[id]
	if tr == nil {
		return
	}
	last := n.lastSeqLocked()
	p := n.prog[id]
	if p == nil { // a member added this term: probe at the log end
		p = &progress{next: last + 1}
		n.prog[id] = p
	}
	if p.installing || (p.next > last && p.inflight > 0) {
		return
	}
	next := p.next
	p.next = last + 1
	p.inflight++
	if next <= n.snapBase {
		p.installing = true
		go n.send(id, tr, p, n.term, nil, &InstallSnapshotRequest{
			Term:         n.term,
			LeaderID:     n.cfg.ID,
			SnapSeq:      n.snapBase,
			SnapTerm:     n.snapTerm,
			SnapConf:     n.snapConf,
			State:        n.snapData,
			Entries:      slices.Clone(n.tail),
			LeaderCommit: n.commitIndex,
		})
		return
	}
	req := &AppendRequest{
		Term:         n.term,
		LeaderID:     n.cfg.ID,
		PrevSeq:      next - 1,
		Entries:      slices.Clone(n.tail[next-1-n.snapBase:]),
		LeaderCommit: n.commitIndex,
	}
	req.PrevTerm, _ = n.termAtLocked(req.PrevSeq)
	go n.send(id, tr, p, n.term, req, nil)
}

// send delivers one append (app) or snapshot install (inst) on peer
// id's send path p in term and feeds the reply to onReplyLocked.
func (n *Node) send(id string, tr Transport, p *progress, term uint64, app *AppendRequest, inst *InstallSnapshotRequest) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
	defer cancel()
	var resp *AppendResponse
	var err error
	var prev uint64 // an install has no anchor
	if inst == nil {
		prev = app.PrevSeq
		resp, err = tr.AppendEntries(ctx, app)
	} else {
		var r *InstallSnapshotResponse
		if r, err = tr.InstallSnapshot(ctx, inst); err == nil {
			resp = &AppendResponse{Term: r.Term, Success: r.Success, LastSeq: r.LastSeq}
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	p.inflight--
	if inst != nil {
		p.installing = false
	}
	if err == nil && n.prog[id] == p { // else the peer was removed since
		n.onReplyLocked(id, p, term, prev, resp)
	}
}

// onReplyLocked is the leader's one handler for append and install
// replies from peer id to a request sent in term and anchored at prev.
func (n *Node) onReplyLocked(id string, p *progress, term, prev uint64, resp *AppendResponse) {
	if n.outrankedLocked(resp.Term) || n.role != Leader || n.term != term {
		return
	}
	// Any reply — even a rejection — proves the peer is alive for
	// check-quorum purposes.
	n.lastContact[id] = time.Now()
	if resp.Success {
		// Clamp: a follower may momentarily hold a longer (stale-term)
		// log than ours; its surplus must not count toward our commit.
		if m := min(resp.LastSeq, n.lastSeqLocked()); m > n.match[id] {
			n.match[id] = m
			p.next = max(p.next, m+1)
			n.advanceCommitLocked()
			n.maybePromoteLocked(id)
		}
		return
	}
	if n.match[id] >= prev {
		return // stale: the peer has since acknowledged the anchor
	}
	// The hint is a point of the peer's log: stream from just past it
	// when our log holds the same entry there, else install.
	if t, ok := n.termAtLocked(resp.HintSeq); ok && t == resp.HintTerm {
		p.next = resp.HintSeq + 1
	} else {
		p.next = n.snapBase
	}
	n.replicateLocked(id)
}

// advanceCommitLocked recomputes the commit index as the quorum median
// of VOTER match indices (self counts at its synced index — an entry
// whose fsync is still running beside the follower round is not yet
// ours to count; learners are replicated to but never counted). Only an
// entry of the CURRENT term may advance it (Raft §5.4.2): committing a
// prior-term entry by counting replicas can be undone by a later leader.
// When the advance commits a configuration entry the new membership is
// folded in and the computation repeats under the new quorum (a shrink
// can unblock further commits immediately).
func (n *Node) advanceCommitLocked() {
	var buf [8]uint64 // voters; more spill to the heap
	for {
		quorum := n.quorumLocked()
		arr := buf[:0]
		for _, m := range n.conf.Members {
			if !m.Voter {
				continue
			}
			if m.ID == n.cfg.ID {
				arr = append(arr, n.synced)
			} else {
				arr = append(arr, n.match[m.ID]) // zero for peers not heard from
			}
		}
		if len(arr) < quorum {
			return
		}
		slices.Sort(arr)
		cand := arr[len(arr)-quorum] // the highest index a quorum holds
		if cand <= n.commitIndex {
			return
		}
		if t, ok := n.termAtLocked(cand); !ok || t != n.term {
			return
		}
		n.commitIndex = cand
		if !n.ready && n.barrier > 0 && cand >= n.barrier {
			n.ready = true
		}
		n.observeStateLocked()
		// Waiters first, membership second: a committed self-removal must
		// acknowledge its proposer before the fold deposes this leader.
		n.notifyWaitersLocked()
		if n.commitIndex > n.lastApplied {
			n.kickApply()
		}
		if n.nextConfSeq == 0 || n.nextConfSeq > n.commitIndex {
			return
		}
		n.recomputeConfLocked()
		if n.role != Leader {
			return // the fold removed us; nothing further to commit here
		}
	}
}
