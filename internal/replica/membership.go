package replica

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// Membership change errors. All are retryable once the condition clears.
var (
	// ErrConfChangeInFlight rejects a second membership change while one
	// is still uncommitted; only one may be pending at a time, which is
	// what makes single-server changes safe without joint consensus.
	ErrConfChangeInFlight = errors.New("replica: membership change already in flight")
	// ErrLearnerLagging rejects a promotion while the learner's log is
	// more than MaxLearnerLag entries behind the leader's.
	ErrLearnerLagging = errors.New("replica: learner not caught up")
	// ErrUnknownMember rejects a change naming a node the configuration
	// does not contain.
	ErrUnknownMember = errors.New("replica: unknown member")
)

// Member is one node of the replicated cluster. A non-voter (learner)
// receives the log and snapshots but counts toward neither quorum nor
// elections; new nodes join as learners and are promoted once caught up.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// Voter marks a full member: it votes, it is counted for commit
	// quorum, and it may lead.
	Voter bool `json:"voter"`
}

// Membership is one cluster configuration. It always carries the
// COMPLETE member list (not a delta), so any single configuration record
// fully describes the cluster. Seq is the log index of the entry that
// created it (0 for the boot-time configuration); a configuration takes
// effect only once its entry commits under the PREVIOUS configuration's
// quorum.
type Membership struct {
	Seq     uint64   `json:"seq"`
	Members []Member `json:"members"`
}

func (m Membership) member(id string) (Member, bool) {
	for _, mem := range m.Members {
		if mem.ID == id {
			return mem, true
		}
	}
	return Member{}, false
}

func (m Membership) voters() int {
	v := 0
	for _, mem := range m.Members {
		if mem.Voter {
			v++
		}
	}
	return v
}

// clone returns a deep copy whose Members slice is safe to mutate.
func (m Membership) clone() Membership {
	return Membership{Seq: m.Seq, Members: append([]Member(nil), m.Members...)}
}

// bootstrapConf derives the boot-time configuration from the static
// Config: every configured peer plus the node itself, all voters. A
// joining node (cfg.Join) boots with an EMPTY configuration instead — it
// learns the real one from the leader's stream — so it can neither vote
// nor elect until the cluster has admitted it.
func bootstrapConf(cfg Config) Membership {
	if cfg.Join {
		return Membership{}
	}
	members := make([]Member, 0, len(cfg.Peers)+1)
	members = append(members, Member{ID: cfg.ID, Addr: cfg.Addrs[cfg.ID], Voter: true})
	for id := range cfg.Peers {
		members = append(members, Member{ID: id, Addr: cfg.Addrs[id], Voter: true})
	}
	return Membership{Members: members}
}

// --- locked helpers ---

// quorumLocked is the commit/election quorum under the current
// committed configuration. With no voters (a joining node that has not
// been admitted yet) no quorum is reachable.
func (n *Node) quorumLocked() int {
	v := n.conf.voters()
	if v == 0 {
		return int(^uint(0) >> 1) // unreachable: a member-less node can decide nothing
	}
	return v/2 + 1
}

func (n *Node) isVoterLocked(id string) bool {
	m, ok := n.conf.member(id)
	return ok && m.Voter
}

// voterPeersLocked snapshots the transports of every OTHER voting
// member (for vote solicitation).
func (n *Node) voterPeersLocked() map[string]Transport {
	out := make(map[string]Transport, len(n.trans))
	for _, m := range n.conf.Members {
		if !m.Voter || m.ID == n.cfg.ID {
			continue
		}
		if tr, ok := n.trans[m.ID]; ok {
			out[m.ID] = tr
		}
	}
	return out
}

// transportFor returns (building if necessary) a transport for a member.
// Static peers win; otherwise the TransportFactory dials the member's
// advertised address.
func (n *Node) transportForLocked(m Member) Transport {
	if tr, ok := n.trans[m.ID]; ok {
		return tr
	}
	if tr, ok := n.cfg.Peers[m.ID]; ok {
		return tr
	}
	if n.cfg.TransportFactory != nil && m.Addr != "" {
		return n.cfg.TransportFactory(m.ID, m.Addr)
	}
	return nil
}

// recomputeConfLocked re-derives the committed configuration from the
// snapshot-base configuration plus every committed configuration entry
// in the tail, and records the first still-pending one. It is the single
// point of truth after any event that moves the committed prefix or
// rewrites the tail: commit advance, conflict truncation (which may ROLL
// BACK an optimistically folded configuration), snapshot install, and
// restart replay. It visits only the tail's configuration entries
// (tailConfs), so a follower pays nothing per append for a long tail.
func (n *Node) recomputeConfLocked() {
	conf := n.snapConf
	var next uint64
	for _, seq := range n.tailConfs {
		if seq > n.commitIndex {
			next = seq
			break
		}
		conf = *n.tail[seq-n.snapBase-1].Conf
	}
	n.nextConfSeq = next
	if conf.Seq != n.conf.Seq {
		n.applyConfLocked(conf)
	}
}

// applyConfLocked activates a newly committed (or rolled-back)
// configuration: reconcile transports and per-peer bookkeeping with the
// member list, and step down if this node lost its vote while leading.
func (n *Node) applyConfLocked(conf Membership) {
	n.conf = conf
	for _, m := range conf.Members {
		if m.ID == n.cfg.ID {
			continue
		}
		if _, ok := n.trans[m.ID]; !ok {
			if tr := n.transportForLocked(m); tr != nil {
				n.trans[m.ID] = tr
			}
		}
	}
	for id := range n.trans {
		if _, ok := conf.member(id); !ok {
			if c, ok := n.trans[id].(io.Closer); ok {
				c.Close()
			}
			delete(n.trans, id)
			delete(n.match, id)
			delete(n.prog, id)
			delete(n.lastContact, id)
			delete(n.promoting, id)
			n.dropPeerMetrics(id)
		}
	}
	n.countConfChange()
	if n.role == Leader && !n.isVoterLocked(n.cfg.ID) {
		// Removed (or demoted) while leading: hand off. Waiters for
		// entries committed up to and including the removal have already
		// been notified; the rest fail with a redirect.
		n.leaderID = ""
		n.becomeFollowerLocked()
		n.resetElectionLocked(time.Now())
	}
	n.observeStateLocked()
}

// --- membership change API (leader only) ---

// AddMember proposes adding id (reachable at addr) as a LEARNER: it
// receives the log and snapshot catch-up immediately but joins the
// quorum only after PromoteMember. Adding an existing member with a new
// address re-points its transport; re-adding it identically is an
// idempotent success (so join loops can retry safely).
func (n *Node) AddMember(id, addr string) error {
	if id == "" {
		return fmt.Errorf("replica: empty member ID")
	}
	n.mu.Lock()
	if cur, ok := n.conf.member(id); ok && cur.Addr == addr {
		n.mu.Unlock()
		return nil
	}
	conf := n.conf.clone()
	if _, ok := conf.member(id); ok {
		for i := range conf.Members {
			if conf.Members[i].ID == id {
				conf.Members[i].Addr = addr
			}
		}
	} else {
		conf.Members = append(conf.Members, Member{ID: id, Addr: addr, Voter: false})
	}
	return n.proposeConfLocked(conf) // unlocks
}

// PromoteMember proposes turning a learner into a voter. It refuses
// while the learner's log is more than MaxLearnerLag entries behind —
// promoting a cold node would immediately put an absentee into every
// quorum.
func (n *Node) PromoteMember(id string) error {
	n.mu.Lock()
	m, ok := n.conf.member(id)
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	if m.Voter {
		n.mu.Unlock()
		return nil
	}
	match, heard := n.match[id]
	if !heard || n.lastSeqLocked()-match > n.cfg.MaxLearnerLag {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q at %d, log at %d", ErrLearnerLagging, id, match, n.lastSeqLocked())
	}
	conf := n.conf.clone()
	for i := range conf.Members {
		if conf.Members[i].ID == id {
			conf.Members[i].Voter = true
		}
	}
	return n.proposeConfLocked(conf) // unlocks
}

// RemoveMember proposes removing id. Removing the leader itself is
// allowed: the removal commits under the old quorum first, then the
// leader steps down and the survivors elect among themselves.
func (n *Node) RemoveMember(id string) error {
	n.mu.Lock()
	if _, ok := n.conf.member(id); !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	conf := n.conf.clone()
	for i := range conf.Members {
		if conf.Members[i].ID == id {
			conf.Members = append(conf.Members[:i], conf.Members[i+1:]...)
			break
		}
	}
	if conf.voters() == 0 {
		n.mu.Unlock()
		return fmt.Errorf("replica: refusing to remove the last voter %q", id)
	}
	return n.proposeConfLocked(conf) // unlocks
}

// maybePromoteLocked auto-promotes a learner that has caught up to
// within MaxLearnerLag of the log end. Called on the leader whenever a
// learner's match index advances; the actual proposal runs off the lock
// and is deduplicated per learner.
func (n *Node) maybePromoteLocked(id string) {
	if n.role != Leader || !n.ready || n.nextConfSeq != 0 || n.promoting[id] {
		return
	}
	m, ok := n.conf.member(id)
	if !ok || m.Voter {
		return
	}
	match := n.match[id]
	if n.lastSeqLocked()-match > n.cfg.MaxLearnerLag {
		return
	}
	n.promoting[id] = true
	go func() {
		_ = n.PromoteMember(id)
		n.mu.Lock()
		delete(n.promoting, id)
		n.mu.Unlock()
	}()
}
