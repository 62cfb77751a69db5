package replica

import (
	"time"

	"sparcle/internal/obs"
)

// Metric names exported on /metrics. Role is encoded as the Role enum
// value (0 follower, 1 candidate, 2 leader) so a single gauge tracks
// transitions.
const (
	metricRole         = "sparcle_repl_role"
	metricTerm         = "sparcle_repl_term"
	metricCommitIndex  = "sparcle_repl_commit_index"
	metricQuorumAcks   = "sparcle_repl_quorum_acks_total"
	metricCatchupSnaps = "sparcle_repl_catchup_snapshots_total"
	metricSnapshots    = "sparcle_repl_snapshots_total"
	metricMembers      = "sparcle_repl_members"
	metricConfChanges  = "sparcle_repl_conf_changes_total"
	metricPreVotes     = "sparcle_repl_prevote_rounds_total"
	metricCheckQuorum  = "sparcle_repl_checkquorum_stepdowns_total"
	metricPeerLag      = "sparcle_repl_peer_lag"
	metricPeerContact  = "sparcle_repl_peer_last_contact_seconds"
)

func (n *Node) registerMetrics() {
	reg := n.cfg.Metrics
	if reg == nil {
		return
	}
	reg.SetHelp(metricRole, "Replication role of this node (0 follower, 1 candidate, 2 leader).")
	reg.SetHelp(metricTerm, "Current replication term.")
	reg.SetHelp(metricCommitIndex, "Highest quorum-committed journal sequence number.")
	reg.SetHelp(metricQuorumAcks, "Proposals acknowledged after reaching quorum on this leader.")
	reg.SetHelp(metricCatchupSnaps, "Snapshot installs accepted from a leader to catch this node up.")
	reg.SetHelp(metricSnapshots, "Local journal snapshots by result: cut, skipped after the export because the log moved past the applied state, or failed (the export or the journal write erred).")
	reg.SetHelp(metricMembers, "Members of the committed cluster configuration, by role (voter/learner).")
	reg.SetHelp(metricConfChanges, "Committed membership changes applied by this node (including rollbacks).")
	reg.SetHelp(metricPreVotes, "Pre-vote canvass rounds started by this node.")
	reg.SetHelp(metricCheckQuorum, "Times this node, as leader, stepped down after losing contact with a quorum.")
	reg.SetHelp(metricPeerLag, "Log entries this peer trails the leader's log end by (leader's view).")
	reg.SetHelp(metricPeerContact, "Seconds since this peer last answered the leader an RPC (leader's view).")
	reg.Counter(metricQuorumAcks)
	reg.Counter(metricCatchupSnaps)
	reg.Counter(metricSnapshots, obs.L("result", "cut"))
	reg.Counter(metricSnapshots, obs.L("result", "skipped"))
	reg.Counter(metricSnapshots, obs.L("result", "failed"))
	reg.Counter(metricConfChanges)
	reg.Counter(metricPreVotes)
	reg.Counter(metricCheckQuorum)
}

// observeStateLocked mirrors role/term/commit-index and the membership
// shape into gauges. Nil-safe and allocation-free when metrics are off.
func (n *Node) observeStateLocked() {
	reg := n.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Gauge(metricRole).Set(float64(n.role))
	reg.Gauge(metricTerm).Set(float64(n.term))
	reg.Gauge(metricCommitIndex).Set(float64(n.commitIndex))
	voters := n.conf.voters()
	reg.Gauge(metricMembers, obs.L("role", "voter")).Set(float64(voters))
	reg.Gauge(metricMembers, obs.L("role", "learner")).Set(float64(len(n.conf.Members) - voters))
}

// observePeerHealthLocked refreshes the leader's per-peer lag and
// last-contact gauges; called from the heartbeat broadcast so the series
// track at heartbeat resolution.
func (n *Node) observePeerHealthLocked() {
	reg := n.cfg.Metrics
	if reg == nil || n.role != Leader {
		return
	}
	now := time.Now()
	last := n.lastSeqLocked()
	for id := range n.trans {
		lag := last - min(n.match[id], last)
		reg.Gauge(metricPeerLag, obs.L("peer", id)).Set(float64(lag))
		if lc, ok := n.lastContact[id]; ok {
			reg.Gauge(metricPeerContact, obs.L("peer", id)).Set(now.Sub(lc).Seconds())
		}
	}
}

// dropPeerMetrics removes a departed member's per-peer series so the
// exposition does not advertise ghosts.
func (n *Node) dropPeerMetrics(id string) {
	reg := n.cfg.Metrics
	if reg == nil {
		return
	}
	reg.DeleteSeries(metricPeerLag, obs.L("peer", id))
	reg.DeleteSeries(metricPeerContact, obs.L("peer", id))
}

func (n *Node) countQuorumAck() {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(metricQuorumAcks).Inc()
	}
}

func (n *Node) countCatchupSnapshot() {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(metricCatchupSnaps).Inc()
	}
}

// countSnapshot counts one local snapshot attempt; result is "cut",
// "skipped" or "failed".
func (n *Node) countSnapshot(result string) {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(metricSnapshots, obs.L("result", result)).Inc()
	}
}

func (n *Node) countConfChange() {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(metricConfChanges).Inc()
	}
}

func (n *Node) countPreVoteRound() {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(metricPreVotes).Inc()
	}
}

func (n *Node) countCheckQuorumStepdown() {
	if reg := n.cfg.Metrics; reg != nil {
		reg.Counter(metricCheckQuorum).Inc()
	}
}
