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
// lease expired and an election starts.
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
	if n.role == Leader {
		n.cfg.Logger.Info("replica deposed", "id", n.cfg.ID, "term", n.term)
	}
	n.role = Follower
	n.ready = false
	n.barrier = 0
	n.promoteApply = false
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
	switch n.role {
	case Leader:
		if n.checkQuorumLocked(now) {
			n.mu.Unlock() // stepped down; no heartbeat to send
			return
		}
		n.mu.Unlock()
		n.broadcastHeartbeat()
	default:
		if now.After(n.electionDeadline) {
			if !n.isVoterLocked(n.cfg.ID) {
				// Learners and un-admitted joiners never elect; just
				// re-arm the timer so a later promotion starts fresh.
				n.rearmElectionLocked(now)
				n.mu.Unlock()
				return
			}
			n.startPreVoteLocked() // unlocks
		} else {
			n.mu.Unlock()
		}
	}
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
	n.cfg.Logger.Warn("replica check-quorum step-down", "id", n.cfg.ID, "term", n.term,
		"heard", heard, "quorum", n.quorumLocked())
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
	term := n.term
	last := n.lastSeqLocked()
	lastTerm, _ := n.termAtLocked(last)
	quorum := n.quorumLocked()
	n.countPreVoteRound()
	if quorum == 1 {
		n.startElectionLocked() // single-voter cluster: elect immediately (unlocks)
		return
	}
	voters := n.voterPeersLocked()
	n.mu.Unlock()

	req := &VoteRequest{Term: term + 1, CandidateID: n.cfg.ID, LastSeq: last, LastTerm: lastTerm, PreVote: true}
	var granted atomic.Int32
	granted.Store(1) // self
	for id, tr := range voters {
		go func(id string, tr Transport) {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
			defer cancel()
			resp, err := tr.RequestVote(ctx, req)
			if err != nil {
				return
			}
			n.mu.Lock()
			if resp.Term > n.term {
				if err := n.stepDownLocked(resp.Term); err != nil {
					n.cfg.Logger.Error("replica: persist step-down failed", "err", err)
				}
				n.mu.Unlock()
				return
			}
			if !resp.Granted || n.term != term || n.role == Leader || !n.isVoterLocked(n.cfg.ID) {
				n.mu.Unlock()
				return
			}
			if n.leaderID != "" && time.Since(n.lastHeard) < n.cfg.ElectionTimeout {
				// A leader surfaced while the canvass was in flight;
				// starting the real election now would disrupt it.
				n.mu.Unlock()
				return
			}
			if int(granted.Add(1)) == quorum {
				n.startElectionLocked() // unlocks
				return
			}
			n.mu.Unlock()
		}(id, tr)
	}
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
		n.cfg.Logger.Error("replica: persist candidacy failed", "err", err)
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
	last := n.lastSeqLocked()
	lastTerm, _ := n.termAtLocked(last)
	quorum := n.quorumLocked()
	voters := n.voterPeersLocked()
	n.cfg.Logger.Info("replica election", "id", n.cfg.ID, "term", term)

	if quorum == 1 {
		n.becomeLeaderLocked(term)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()

	req := &VoteRequest{Term: term, CandidateID: n.cfg.ID, LastSeq: last, LastTerm: lastTerm}
	var granted atomic.Int32
	granted.Store(1) // self-vote
	for id, tr := range voters {
		go func(id string, tr Transport) {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
			defer cancel()
			resp, err := tr.RequestVote(ctx, req)
			if err != nil {
				return
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			if resp.Term > n.term {
				if err := n.stepDownLocked(resp.Term); err != nil {
					n.cfg.Logger.Error("replica: persist step-down failed", "err", err)
				}
				return
			}
			if n.role != Candidate || n.term != term || !resp.Granted {
				return
			}
			if int(granted.Add(1)) >= quorum {
				n.becomeLeaderLocked(term)
			}
		}(id, tr)
	}
}

// becomeLeaderLocked wins term and starts promotion: the new leader must
// first commit a no-op barrier in its own term before acknowledging any
// proposal (a prior-term entry is only provably durable once an entry of
// the current term commits on top of it).
func (n *Node) becomeLeaderLocked(term uint64) {
	if n.role == Candidate && n.term == term {
		n.role = Leader
		n.leaderID = n.cfg.ID
		n.ready = false
		for id := range n.match {
			delete(n.match, id)
		}
		now := time.Now()
		n.leaseStart = now
		for id := range n.trans {
			n.lastContact[id] = now
		}
		n.observeStateLocked()
		n.cfg.Logger.Info("replica leader elected", "id", n.cfg.ID, "term", term)
		go n.promote(term)
	}
}

// promote finishes a leadership transition off the lock: bring the local
// state machine to the log end (entries past the old commit index are
// locally durable and, by the election rule, the most up-to-date log in
// the quorum — they become committed once the barrier does), then append
// and replicate the term barrier.
func (n *Node) promote(term uint64) {
	// Let the apply loop (the only SM writer) run past commitIndex.
	n.mu.Lock()
	if n.role != Leader || n.term != term {
		n.mu.Unlock()
		return
	}
	n.promoteApply = true
	target := n.lastSeqLocked()
	n.mu.Unlock()
	n.kickApply()
	for {
		n.mu.Lock()
		if n.role != Leader || n.term != term {
			n.mu.Unlock()
			return
		}
		if n.lastApplied >= target {
			n.promoteApply = false
			break // keep the lock
		}
		n.mu.Unlock()
		select {
		case <-n.stopc:
			return
		case <-time.After(time.Millisecond):
		}
	}
	// Barrier entry: a no-op stamped with the new term.
	e := Entry{Seq: n.lastSeqLocked() + 1, Term: term, Nop: true}
	if err := n.appendEntryLocked(e, false); err != nil {
		n.cfg.Logger.Error("replica: barrier append failed", "err", err)
		n.becomeFollowerLocked()
		n.mu.Unlock()
		return
	}
	n.barrier = e.Seq
	n.lastApplied = e.Seq   // no-op: the state machine is unaffected
	n.advanceCommitLocked() // self-count (commits immediately at quorum 1)
	n.mu.Unlock()
	n.broadcastHeartbeat() // carries the barrier via per-peer delta send
}

// broadcastHeartbeat sends each peer what it is missing: a full delta
// when the match index is known, otherwise an empty probe whose
// rejection hint reveals where the peer's log stands.
func (n *Node) broadcastHeartbeat() {
	n.mu.Lock()
	if n.role != Leader {
		n.mu.Unlock()
		return
	}
	term := n.term
	last := n.lastSeqLocked()
	type sendJob struct {
		id  string
		tr  Transport
		req *AppendRequest
	}
	jobs := make([]sendJob, 0, len(n.trans))
	for id, tr := range n.trans {
		m, known := n.match[id]
		req := &AppendRequest{Term: term, LeaderID: n.cfg.ID, LeaderCommit: n.commitIndex}
		if known && m < last && m >= n.snapBase {
			req.PrevSeq = m
			req.PrevTerm, _ = n.termAtLocked(m)
			req.Entries = append([]Entry(nil), n.tail[m-n.snapBase:]...)
		} else {
			req.PrevSeq = last
			req.PrevTerm, _ = n.termAtLocked(last)
		}
		jobs = append(jobs, sendJob{id, tr, req})
	}
	n.observePeerHealthLocked()
	n.mu.Unlock()
	for _, job := range jobs {
		go n.sendAppend(job.id, job.tr, job.req, term)
	}
}

// sendAppend delivers one AppendEntries and feeds the response back into
// match/commit bookkeeping.
func (n *Node) sendAppend(id string, tr Transport, req *AppendRequest, term uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
	defer cancel()
	resp, err := tr.AppendEntries(ctx, req)
	if err != nil {
		return
	}
	n.handleAppendResponse(id, tr, resp, term)
}

func (n *Node) handleAppendResponse(id string, tr Transport, resp *AppendResponse, term uint64) {
	n.mu.Lock()
	if resp.Term > n.term {
		if err := n.stepDownLocked(resp.Term); err != nil {
			n.cfg.Logger.Error("replica: persist step-down failed", "err", err)
		}
		n.mu.Unlock()
		return
	}
	if n.role != Leader || n.term != term {
		n.mu.Unlock()
		return
	}
	// Any response — even a rejection — proves the peer is alive for
	// check-quorum purposes.
	n.lastContact[id] = time.Now()
	if resp.Success {
		// Clamp: a follower may momentarily hold a longer (stale-term)
		// log than ours; its surplus must not count toward our commit.
		m := min(resp.LastSeq, n.lastSeqLocked())
		if m > n.match[id] {
			n.match[id] = m
			n.advanceCommitLocked()
			n.maybePromoteLocked(id)
		}
		n.mu.Unlock()
		return
	}
	hint, hintTerm := resp.HintSeq, resp.HintTerm
	n.mu.Unlock()
	n.catchUp(id, tr, hint, hintTerm, term)
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
			n.cfg.Logger.Info("replica leader ready", "id", n.cfg.ID, "term", n.term, "barrier", n.barrier)
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

// catchUp repairs one lagging peer, streaming tail entries when the
// hint still falls inside our in-memory log and terms agree, otherwise
// installing a snapshot. One repair per peer runs at a time; heartbeat
// rejections re-trigger it until the peer converges.
func (n *Node) catchUp(id string, tr Transport, hint, hintTerm, term uint64) {
	n.mu.Lock()
	if n.catching[id] {
		n.mu.Unlock()
		return
	}
	n.catching[id] = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.catching, id)
		n.mu.Unlock()
	}()

	for attempt := 0; attempt < 4; attempt++ {
		n.mu.Lock()
		if n.role != Leader || n.term != term || n.stopped {
			n.mu.Unlock()
			return
		}
		last := n.lastSeqLocked()
		streamable := hint >= n.snapBase && hint <= last
		if streamable {
			if t, ok := n.termAtLocked(hint); !ok || t != hintTerm {
				streamable = false // peer's log conflicts below our tail
			}
		}
		if streamable {
			req := &AppendRequest{
				Term:         term,
				LeaderID:     n.cfg.ID,
				PrevSeq:      hint,
				LeaderCommit: n.commitIndex,
				Entries:      append([]Entry(nil), n.tail[hint-n.snapBase:]...),
			}
			req.PrevTerm, _ = n.termAtLocked(hint)
			n.mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
			resp, err := tr.AppendEntries(ctx, req)
			cancel()
			if err != nil {
				return
			}
			n.mu.Lock()
			if resp.Term > n.term {
				if err := n.stepDownLocked(resp.Term); err != nil {
					n.cfg.Logger.Error("replica: persist step-down failed", "err", err)
				}
				n.mu.Unlock()
				return
			}
			if n.role != Leader || n.term != term {
				n.mu.Unlock()
				return
			}
			n.lastContact[id] = time.Now()
			if resp.Success {
				m := min(resp.LastSeq, n.lastSeqLocked())
				if m > n.match[id] {
					n.match[id] = m
					n.advanceCommitLocked()
					n.maybePromoteLocked(id)
				}
				n.mu.Unlock()
				return
			}
			hint, hintTerm = resp.HintSeq, resp.HintTerm
			n.mu.Unlock()
			continue
		}
		// Stream cannot repair (hint below our snapshot or conflicting):
		// one-shot snapshot install brings the peer to our exact log.
		req := &InstallSnapshotRequest{
			Term:         term,
			LeaderID:     n.cfg.ID,
			SnapSeq:      n.snapBase,
			SnapTerm:     n.snapTerm,
			SnapConf:     n.snapConf,
			State:        n.snapData,
			Entries:      append([]Entry(nil), n.tail...),
			LeaderCommit: n.commitIndex,
		}
		n.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
		resp, err := tr.InstallSnapshot(ctx, req)
		cancel()
		if err != nil {
			return
		}
		n.mu.Lock()
		if resp.Term > n.term {
			if err := n.stepDownLocked(resp.Term); err != nil {
				n.cfg.Logger.Error("replica: persist step-down failed", "err", err)
			}
			n.mu.Unlock()
			return
		}
		if n.role == Leader && n.term == term {
			n.lastContact[id] = time.Now()
			if resp.Success {
				m := min(resp.LastSeq, n.lastSeqLocked())
				if m > n.match[id] {
					n.match[id] = m
					n.advanceCommitLocked()
					n.maybePromoteLocked(id)
				}
			}
		}
		n.mu.Unlock()
		return
	}
}
