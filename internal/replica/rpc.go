package replica

import (
	"fmt"
	"time"
)

// AppendRequest replicates entries (or, with none, renews the leader's
// lease). PrevSeq/PrevTerm anchor the log-matching check at the point
// just before Entries.
type AppendRequest struct {
	Term         uint64  `json:"term"`
	LeaderID     string  `json:"leaderId"`
	PrevSeq      uint64  `json:"prevSeq"`
	PrevTerm     uint64  `json:"prevTerm"`
	Entries      []Entry `json:"entries,omitempty"`
	LeaderCommit uint64  `json:"leaderCommit"`
}

// AppendResponse reports acceptance. On success LastSeq is the
// follower's log end (feeds the leader's match index). On rejection
// HintSeq/HintTerm describe a point of the follower's log from which the
// leader can retry — its log end when it is simply behind, its snapshot
// base after a term conflict.
type AppendResponse struct {
	Term     uint64 `json:"term"`
	Success  bool   `json:"success"`
	LastSeq  uint64 `json:"lastSeq,omitempty"`
	HintSeq  uint64 `json:"hintSeq,omitempty"`
	HintTerm uint64 `json:"hintTerm,omitempty"`
}

// VoteRequest asks for a vote in Term. LastSeq/LastTerm summarize the
// candidate's log; a voter only grants when that log is at least as
// up-to-date as its own, which is what guarantees no quorum-acked entry
// is ever lost by an election. A PreVote request is a non-binding
// canvass: the voter answers whether it WOULD grant (Term here is the
// term the candidate would campaign in) without updating any state, and
// additionally refuses while it still hears from a live leader — which
// is what stops a partitioned node from deposing a healthy leader on
// rejoin.
type VoteRequest struct {
	Term        uint64 `json:"term"`
	CandidateID string `json:"candidateId"`
	LastSeq     uint64 `json:"lastSeq"`
	LastTerm    uint64 `json:"lastTerm"`
	PreVote     bool   `json:"preVote,omitempty"`
}

// VoteResponse grants or denies.
type VoteResponse struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// InstallSnapshotRequest ships a full snapshot plus the leader's current
// tail in one shot: after installing, the follower's log is identical to
// the leader's. Used when record streaming cannot repair the follower
// (its hint predates the leader's snapshot base).
type InstallSnapshotRequest struct {
	Term     uint64 `json:"term"`
	LeaderID string `json:"leaderId"`
	SnapSeq  uint64 `json:"snapSeq"`
	SnapTerm uint64 `json:"snapTerm"`
	// SnapConf is the cluster configuration as of SnapSeq; the follower
	// adopts it with the snapshot (entries in Entries may then evolve it
	// further).
	SnapConf     Membership `json:"snapConf"`
	State        []byte     `json:"state"`
	Entries      []Entry    `json:"entries,omitempty"`
	LeaderCommit uint64     `json:"leaderCommit"`
}

// InstallSnapshotResponse acknowledges an install; LastSeq is the
// follower's log end afterwards.
type InstallSnapshotResponse struct {
	Term    uint64 `json:"term"`
	Success bool   `json:"success"`
	LastSeq uint64 `json:"lastSeq,omitempty"`
}

// observeTermLocked adopts a higher term (stepping down if needed) and
// persists the vote state. Returns an error only on persist failure.
func (n *Node) observeTermLocked(term uint64) error {
	if term <= n.term {
		return nil
	}
	return n.stepDownLocked(term)
}

// followLeader is the prologue of every message from a leader: it takes
// n.mu (waiting out a follower's snapshot cut), refuses on a stopped
// node, and otherwise adopts the sender's term and leadership and renews
// the election lease. It returns this node's term; one above term means
// the message is stale and must be refused. On a refusal or an error
// n.mu is released, otherwise the caller holds it.
func (n *Node) followLeader(term uint64, leader string) (uint64, error) {
	n.mu.Lock()
	n.awaitCutLocked()
	err := ErrStopped
	if !n.stopped {
		err = n.observeTermLocked(term)
	}
	cur := n.term
	if err != nil || cur > term {
		n.mu.Unlock()
		return cur, err
	}
	if n.role != Follower {
		n.becomeFollowerLocked()
	}
	n.leaderID = leader
	n.resetElectionLocked(time.Now())
	return cur, nil
}

// HandleAppendEntries is the follower half of replication and lease
// renewal. It runs synchronously under the node lock; journal writes
// (append, truncate) happen inline so a success response means the
// entries are on stable storage under the journal's fsync policy.
func (n *Node) HandleAppendEntries(req *AppendRequest) (*AppendResponse, error) {
	term, err := n.followLeader(req.Term, req.LeaderID)
	if err != nil {
		return nil, err
	}
	if term > req.Term {
		return &AppendResponse{Term: term}, nil
	}
	resp, kick, err := n.acceptEntriesLocked(req.PrevSeq, req.PrevTerm, req.Entries, req.LeaderCommit)
	n.mu.Unlock()
	if kick {
		n.kickApply()
	}
	return resp, err
}

// acceptEntriesLocked is the shared follower-side append core: verify
// the prev anchor, skip duplicates, truncate a conflicting suffix, and
// append the rest. Used by HandleAppendEntries and by the
// already-covered-snapshot path of HandleInstallSnapshot. Returns
// whether the apply loop needs a kick (done outside the lock).
func (n *Node) acceptEntriesLocked(prevSeq, prevTerm uint64, entries []Entry, leaderCommit uint64) (*AppendResponse, bool, error) {
	last := n.lastSeqLocked()
	if prevSeq > last {
		t, _ := n.termAtLocked(last)
		return &AppendResponse{Term: n.term, HintSeq: last, HintTerm: t}, false, nil
	}
	if prevSeq > n.snapBase {
		if t, _ := n.termAtLocked(prevSeq); t != prevTerm {
			// The anchor itself conflicts. Point the leader at our
			// snapshot base — everything at or below it is committed
			// state and guaranteed to match.
			return &AppendResponse{Term: n.term, HintSeq: n.snapBase, HintTerm: n.snapTerm}, false, nil
		}
	}

	for _, e := range entries {
		if e.Seq <= n.snapBase {
			continue // already covered by our snapshot (committed)
		}
		if e.Seq <= last {
			if t, _ := n.termAtLocked(e.Seq); t == e.Term {
				continue // duplicate of what we already hold
			}
			// Term conflict: our suffix from e.Seq on was never
			// quorum-acked (a deposed leader's tail). Cut it.
			if err := n.cfg.Journal.TruncateTo(e.Seq - 1); err != nil {
				return nil, false, fmt.Errorf("replica: truncate divergent tail: %w", err)
			}
			last = e.Seq - 1
			n.tail = n.tail[:last-n.snapBase]
			for k := len(n.tailConfs); k > 0 && n.tailConfs[k-1] > last; k-- {
				n.tailConfs = n.tailConfs[:k-1]
			}
			n.synced = last // TruncateTo flushed the kept prefix
			if n.commitIndex > last {
				// Only possible when a restart optimistically treated the
				// whole local log as committed; the cut proves the excess
				// was not.
				n.commitIndex = last
			}
			if n.lastApplied > last {
				// The state machine already ran the divergent suffix
				// (applied at restart): rebuild it from the local
				// snapshot, then re-apply the surviving committed log.
				n.restoreBase = true
			}
		}
		if e.Seq != last+1 {
			t, _ := n.termAtLocked(last)
			return &AppendResponse{Term: n.term, HintSeq: last, HintTerm: t}, false, nil
		}
		if err := n.appendEntryLocked(e, true); err != nil {
			return nil, false, err
		}
		last = e.Seq
	}
	if n.synced < last {
		// One fsync for this request's appends (and a deposed leader's
		// deferred ones): the leader counts this log end toward quorum.
		if err := n.cfg.Journal.Sync(); err != nil {
			return nil, false, err
		}
		n.synced = last
	}

	if leaderCommit > n.commitIndex {
		n.commitIndex = min(leaderCommit, last)
		n.observeStateLocked()
	}
	// Re-derive the committed configuration: the commit advance may have
	// folded a pending change in, and a truncation may have rolled an
	// optimistically applied one back.
	n.recomputeConfLocked()
	kick := n.restoreBase || n.commitIndex > n.lastApplied
	return &AppendResponse{Term: n.term, Success: true, LastSeq: last}, kick, nil
}

// HandleRequestVote is the voter half of elections (and of pre-vote
// canvasses, which touch no durable state).
func (n *Node) HandleRequestVote(req *VoteRequest) (*VoteResponse, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return nil, ErrStopped
	}
	myLast := n.lastSeqLocked()
	myTerm, _ := n.termAtLocked(myLast)
	upToDate := req.LastTerm > myTerm || (req.LastTerm == myTerm && req.LastSeq >= myLast)
	if req.PreVote {
		// Non-binding: answer whether a real request would win this vote,
		// without adopting the term, recording a vote, or resetting the
		// election timer. Deny while a leadership lease is live — either
		// we ARE the leader or we heard one within an election timeout —
		// so a disconnected node cannot talk a healthy cluster into an
		// election.
		granted := req.Term > n.term && upToDate && n.isVoterLocked(n.cfg.ID) &&
			n.role != Leader &&
			!(n.leaderID != "" && time.Since(n.lastHeard) < n.cfg.ElectionTimeout)
		return &VoteResponse{Term: n.term, Granted: granted}, nil
	}
	if req.Term < n.term {
		return &VoteResponse{Term: n.term}, nil
	}
	if err := n.observeTermLocked(req.Term); err != nil {
		return nil, err
	}
	if !upToDate || (n.votedFor != "" && n.votedFor != req.CandidateID) || !n.isVoterLocked(n.cfg.ID) {
		return &VoteResponse{Term: n.term}, nil
	}
	n.votedFor = req.CandidateID
	if err := n.persistMetaLocked(); err != nil {
		// A vote that is not durable must not be granted: after a crash
		// we could vote again in the same term.
		n.votedFor = ""
		return nil, err
	}
	n.resetElectionLocked(time.Now())
	return &VoteResponse{Term: n.term, Granted: true}, nil
}

// HandleInstallSnapshot replaces the follower's journal and log with the
// leader's snapshot plus tail.
func (n *Node) HandleInstallSnapshot(req *InstallSnapshotRequest) (*InstallSnapshotResponse, error) {
	term, err := n.followLeader(req.Term, req.LeaderID)
	if err != nil {
		return nil, err
	}
	if term > req.Term {
		return &InstallSnapshotResponse{Term: term}, nil
	}
	if req.SnapSeq <= n.snapBase {
		// Our own snapshot already covers the shipped base, so the
		// committed prefix through our base is known-identical to the
		// leader's log. Treat the shipped tail as a record stream
		// anchored at our snapshot — the append core skips what we hold,
		// truncates any divergent suffix, and appends the rest. (A blind
		// "stale install" success here would falsely advertise a match
		// while our tail still diverged.)
		ar, kick, err := n.acceptEntriesLocked(n.snapBase, n.snapTerm, req.Entries, req.LeaderCommit)
		n.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if kick {
			n.kickApply()
		}
		return &InstallSnapshotResponse{Term: ar.Term, Success: ar.Success, LastSeq: ar.LastSeq}, nil
	}
	payload := snapPayload{Term: req.SnapTerm, Conf: req.SnapConf, State: req.State}
	if err := n.cfg.Journal.InstallSnapshot(req.SnapSeq, payload); err != nil {
		n.mu.Unlock()
		return nil, err
	}
	n.snapBase, n.snapTerm = req.SnapSeq, req.SnapTerm
	if len(req.SnapConf.Members) > 0 {
		n.snapConf = req.SnapConf
	}
	n.snapData = append([]byte(nil), req.State...)
	n.tail, n.tailConfs = nil, nil
	n.nextConfSeq = 0
	n.synced = req.SnapSeq
	last := req.SnapSeq
	for _, e := range req.Entries {
		if e.Seq != last+1 {
			break // leader shipped a gap; keep the consistent prefix
		}
		if err := n.appendEntryLocked(e, false); err != nil {
			n.mu.Unlock()
			return nil, err
		}
		last = e.Seq
	}
	n.commitIndex = max(req.SnapSeq, min(req.LeaderCommit, last))
	n.restoreBase = true // the apply loop moves lastApplied once the restore ran
	n.recomputeConfLocked()
	n.observeStateLocked()
	resp := &InstallSnapshotResponse{Term: n.term, Success: true, LastSeq: last}
	n.mu.Unlock()
	n.countCatchupSnapshot()
	n.kickApply()
	return resp, nil
}
