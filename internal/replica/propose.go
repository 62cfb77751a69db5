package replica

import (
	"encoding/json"
	"time"
)

// Propose appends data as the next log entry and blocks until a quorum
// holds it on stable storage (at which point it is committed and will
// survive any single-node loss). The caller — the scheduler's commit
// hook — has already applied the operation to the local state machine,
// so Propose records that fact by advancing lastApplied itself.
//
// Errors: *NotLeaderError on a follower/candidate (redirect), ErrNotReady
// before the term barrier commits (retry), ErrNoQuorum when the cluster
// cannot acknowledge in time, ErrStopped after Stop.
func (n *Node) Propose(data []byte) error {
	n.proposeMu.Lock()
	n.mu.Lock()
	return n.proposeLocked(json.RawMessage(data), nil, 0) // unlocks both
}

// proposeConfLocked proposes conf as the cluster's next configuration.
// Called with n.mu held (but NOT proposeMu); releases it. The entry
// rides the ordinary replication path — same quorum wait, same waiter
// semantics — but is journaled under its own record type with a forced
// fsync, and only one may be uncommitted at a time.
func (n *Node) proposeConfLocked(conf Membership) error {
	// The caller derived conf from the committed configuration it saw;
	// remember that base so the decision can be revalidated after the
	// locks are re-taken in propose order (proposeMu before mu).
	base := n.conf.Seq
	n.mu.Unlock()
	n.proposeMu.Lock()
	n.mu.Lock()
	return n.proposeLocked(nil, &conf, base) // unlocks both
}

// proposeLocked is the shared propose core. Called with proposeMu and
// n.mu held, in that order; releases both. confBase is the committed
// configuration a non-nil conf was derived from: if another change
// landed in between (or is still pending), the stale derivation is
// refused rather than silently undoing it.
func (n *Node) proposeLocked(data json.RawMessage, conf *Membership, confBase uint64) error {
	unlock := func() {
		n.mu.Unlock()
		n.proposeMu.Unlock()
	}
	if n.stopped {
		unlock()
		return ErrStopped
	}
	if n.role != Leader {
		err := &NotLeaderError{LeaderID: n.leaderID}
		unlock()
		return err
	}
	if !n.ready {
		unlock()
		return ErrNotReady
	}
	if conf != nil && (n.nextConfSeq != 0 || n.conf.Seq != confBase) {
		unlock()
		return ErrConfChangeInFlight
	}
	term := n.term
	e := Entry{Seq: n.lastSeqLocked() + 1, Term: term, Data: data}
	if conf != nil {
		conf.Seq = e.Seq
		e.Conf = conf
		e.Data = nil
	}
	// Under SyncAlways a data entry is written unsynced and flushed below,
	// while the followers append it: the leader's fsync overlaps the
	// follower round instead of preceding it (Raft thesis §10.2.1).
	if err := n.appendEntryLocked(e, true); err != nil {
		// The local journal refused the entry. The scheduler already
		// holds the op in memory; surfacing the error fails the request
		// with ErrDurability upstream and the durability contract (treat
		// the node as failed, restart to heal) applies.
		unlock()
		return err
	}
	deferred := n.synced < e.Seq
	if conf == nil {
		n.lastApplied = e.Seq // the caller applied this op before proposing
	}
	w := &commitWaiter{seq: e.Seq, term: term, c: make(chan error, 1)}
	n.waiters = append(n.waiters, w)
	n.advanceCommitLocked() // self-count (completes the waiter at quorum 1 once synced)
	n.replicateAllLocked()  // a caught-up peer gets e alone, beside the fsync below
	n.mu.Unlock()
	n.proposeMu.Unlock()

	if deferred {
		if err := n.syncAppended(term, e.Seq); err != nil {
			n.removeWaiter(w)
			return err // as an append failure: the node is failed
		}
	}

	t := time.NewTimer(n.cfg.ProposeTimeout)
	defer t.Stop()
	select {
	case err := <-w.c:
		if err == nil {
			n.countQuorumAck()
			n.maybeSnapshot()
		}
		return err
	case <-t.C:
		n.removeWaiter(w)
		// Drain a completion that raced the timeout.
		select {
		case err := <-w.c:
			if err == nil {
				n.countQuorumAck()
			}
			return err
		default:
		}
		return ErrNoQuorum
	case <-n.stopc:
		n.removeWaiter(w)
		return ErrStopped
	}
}

// syncAppended flushes the leader's deferred append of seq and then
// counts its own copy toward the quorum — only while it still leads the
// term that appended it: within one term a leader's log only grows, so
// seq is still the entry it wrote.
func (n *Node) syncAppended(term, seq uint64) error {
	if err := n.cfg.Journal.Sync(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == Leader && n.term == term && seq > n.synced {
		n.synced = seq
		n.advanceCommitLocked()
	}
	return nil
}

func (n *Node) removeWaiter(w *commitWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, x := range n.waiters {
		if x == w {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			return
		}
	}
}
