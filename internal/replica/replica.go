// Package replica turns the single-node write-ahead journal into a
// 3-node replicated control plane: a leader streams journal records to
// followers and acknowledges the client only after a quorum (2 of 3) has
// them on stable storage, followers keep a hot state machine by applying
// committed records continuously, and a heartbeat-leased election with
// term-numbered records promotes a follower on leader loss — failover
// resumes from the last committed record instead of cold-replaying.
//
// The replicated log IS the journal: each log entry is one journal
// record of type "repl" whose journal sequence number is its log index,
// and the journal's existing atomic-snapshot machinery doubles as the
// snapshot-catch-up transport for lagging or freshly joined followers.
// The protocol is a deliberately small Raft subset — one send path per
// peer that streams from a cursor (a single entry on the propose hot
// path, nothing as the heartbeat, the gap after a hinted rejection) or
// falls back to a one-shot snapshot install, and a no-op barrier entry
// per new term so a leader only acknowledges once its term can commit —
// sized for a fixed 3-node control plane rather than a general consensus
// library.
// See docs/replication.md for the protocol walk-through and the failure
// matrix.
package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sparcle/internal/journal"
	"sparcle/internal/obs"
)

// Role is a node's position in the current term.
type Role int32

const (
	Follower Role = iota
	Candidate
	Leader
)

// String returns the /healthz spelling of the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int32(r))
	}
}

// recordType tags replicated entries in the journal; confRecordType tags
// membership-change entries, which are additionally fsynced on append
// regardless of the journal's policy (a lost configuration record could
// let a crashed node count votes under a stale quorum).
const (
	recordType     = "repl"
	confRecordType = "repl-conf"
)

// metaFile persists the vote state (term, votedFor) that must survive a
// crash: voting twice in one term would let two leaders win it.
const metaFile = "repl-meta.json"

// Entry is one replicated log entry. Seq is both the journal sequence
// number and the log index; Term is the leadership term that created the
// entry. A Nop entry is the barrier a new leader commits to prove its
// term before acknowledging proposals; a Conf entry carries a complete
// new cluster configuration that takes effect when the entry commits.
// Neither reaches the state machine.
type Entry struct {
	Seq  uint64          `json:"seq"`
	Term uint64          `json:"term"`
	Nop  bool            `json:"nop,omitempty"`
	Conf *Membership     `json:"conf,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// snapPayload wraps a state-machine snapshot with the term of the last
// entry it covers (so log-matching works across a snapshot boundary) and
// the cluster configuration as of that entry (so a restart or a
// snapshot-install recovers membership without replaying history). A
// snapshot without members predates dynamic membership and falls back to
// the boot-time configuration.
type snapPayload struct {
	Term  uint64          `json:"term"`
	Conf  Membership      `json:"conf"`
	State json.RawMessage `json:"state"`
}

// StateMachine is the replicated state the log drives. The server wires
// its admission router here (shard.Router.Apply per entry).
//
// Lock discipline: Apply, SnapshotWith and Restore are only ever called
// from one node goroutine at a time, but they run concurrently with the
// owner's own reads, so implementations take the owner's lock. The node
// never holds its internal mutex while calling Apply or Restore;
// SnapshotWith's write callback is the one place both locks are held
// (state machine outside, node inside), which freezes the applied index
// and the journal sequence together so the snapshot is stamped exactly.
type StateMachine interface {
	// Apply applies one committed entry, in log order.
	Apply(data []byte) error
	// SnapshotWith exports the current state and hands it to write while
	// still holding whatever lock froze it; write persists it.
	SnapshotWith(write func(state []byte) error) error
	// Restore resets the machine to snap (nil means genesis) and then
	// applies entries in order.
	Restore(snap []byte, entries [][]byte) error
}

// Config assembles a Node.
type Config struct {
	// ID names this node; it must be unique across the cluster.
	ID string
	// Peers maps every OTHER boot-time node's ID to a transport reaching
	// it. Members added later get transports from TransportFactory.
	Peers map[string]Transport
	// Addrs optionally maps member IDs (including this node's) to the
	// advertised addresses recorded in the boot-time configuration, so
	// nodes that join later can dial the incumbents.
	Addrs map[string]string
	// TransportFactory builds a transport for a member learned through a
	// configuration change (nil disables dynamic dialing; such members
	// are only reachable if already present in Peers).
	TransportFactory func(id, addr string) Transport
	// Join starts the node with an EMPTY configuration: it neither votes
	// nor elects, and waits for a leader to stream it the real
	// membership (an AddMember on the leader admits it as a learner).
	Join bool
	// MaxLearnerLag is the most log entries a learner may trail the
	// leader by and still be promoted to voter (default 64).
	MaxLearnerLag uint64
	// Journal is the node's write-ahead journal, opened but not yet
	// recovered — Start owns recovery.
	Journal *journal.Journal
	// SM is the replicated state machine.
	SM StateMachine
	// SnapshotEvery is the record count between journal snapshots; at
	// or below 0 the node cuts none.
	SnapshotEvery int
	// Heartbeat is the leader's heartbeat period (default 100ms). A
	// follower treats each heartbeat as a leadership lease renewal.
	Heartbeat time.Duration
	// ElectionTimeout is the base lease: a follower that hears nothing
	// for a randomized [1x, 2x) multiple of it starts an election
	// (default 10x Heartbeat).
	ElectionTimeout time.Duration
	// RPCTimeout bounds a single peer RPC (default ElectionTimeout).
	RPCTimeout time.Duration
	// ProposeTimeout bounds the quorum wait of one Propose (default 4x
	// ElectionTimeout).
	ProposeTimeout time.Duration
	// Metrics, when non-nil, receives the sparcle_repl_* series.
	Metrics *obs.Registry
	// Seed seeds the election jitter (0 = time-seeded).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 10 * c.Heartbeat
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = c.ElectionTimeout
	}
	if c.ProposeTimeout <= 0 {
		c.ProposeTimeout = 4 * c.ElectionTimeout
	}
	if c.MaxLearnerLag == 0 {
		c.MaxLearnerLag = 64
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// commitWaiter parks one Propose until its entry commits or the term
// ends.
type commitWaiter struct {
	seq  uint64
	term uint64
	c    chan error
}

// Node is one member of the replicated control plane. All exported
// methods are safe for concurrent use.
type Node struct {
	cfg Config

	mu       sync.Mutex
	role     Role
	term     uint64
	votedFor string
	leaderID string

	// conf is the committed cluster configuration; snapConf is the
	// configuration as of snapBase. trans holds a live transport per
	// OTHER member; nextConfSeq is the log index of the single pending
	// (uncommitted) configuration entry, 0 when none.
	conf        Membership
	snapConf    Membership
	trans       map[string]Transport
	nextConfSeq uint64
	// promoting dedups in-flight learner auto-promotions.
	promoting map[string]bool

	// lastContact tracks when each peer last answered an RPC; the
	// check-quorum rule steps an isolated leader down when a quorum has
	// been silent for an election timeout. leaseStart is the grace
	// anchor: a fresh leader gets one timeout to hear from anyone.
	lastContact map[string]time.Time
	leaseStart  time.Time
	// ready is set once the leader's term barrier has committed; Propose
	// before that answers ErrNotReady (retryable).
	ready   bool
	barrier uint64

	// The in-memory log: snapData/snapBase/snapTerm mirror the journal's
	// newest snapshot, tail holds every entry after it (contiguous, so
	// tail[i].Seq == snapBase+1+i). The tail serves catch-up streaming
	// and term lookups without disk reads; the journal holds the same
	// bytes durably. tailConfs lists the Seq of every configuration
	// entry in the tail, ascending.
	snapBase  uint64
	snapTerm  uint64
	snapData  []byte
	tail      []Entry
	tailConfs []uint64

	// synced is the highest log index this node holds on stable storage
	// under the journal's policy. It trails the log end only while a
	// leader's deferred append awaits its fsync (see proposeLocked); the
	// leader counts itself toward the quorum at synced, and no node
	// reports a log end above it to a leader.
	synced uint64

	commitIndex uint64
	lastApplied uint64
	// applyErr is why the apply loop halted: the state machine refused
	// a restore or an entry ("" while applies run). Status reports it.
	applyErr string
	// restoreBase asks the apply loop to reset the state machine to the
	// local snapshot before applying (set after a divergent-suffix
	// truncation or a snapshot install).
	restoreBase bool
	// promoteApply, non-nil during leader promotion, lets the apply loop
	// run past commitIndex to the log end; the loop closes it once
	// everything through promoteTo is applied.
	promoteApply chan struct{}
	promoteTo    uint64

	// The leader's view of each peer: match is the highest entry known
	// replicated to it, prog the state of its send path.
	match   map[string]uint64
	prog    map[string]*progress
	waiters []*commitWaiter

	lastHeard        time.Time
	electionDeadline time.Time
	rng              *rand.Rand

	proposeMu sync.Mutex

	// streams holds the inbound replication streams Handler serves; Stop
	// closes them.
	streams map[io.Closer]struct{}

	applyc  chan struct{}
	stopc   chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool

	// snapshotting dedups local snapshot cuts. cutHold is non-nil while a
	// follower's cut is exporting: the follower's log changes wait for it
	// (see maybeSnapshot).
	snapshotting bool
	cutHold      chan struct{}
}

// New validates the configuration and returns an unstarted node.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("replica: empty node ID")
	}
	if cfg.Journal == nil {
		return nil, fmt.Errorf("replica: nil journal")
	}
	if cfg.SM == nil {
		return nil, fmt.Errorf("replica: nil state machine")
	}
	if _, ok := cfg.Peers[cfg.ID]; ok {
		return nil, fmt.Errorf("replica: peers must not include the node itself (%q)", cfg.ID)
	}
	if cfg.Join && len(cfg.Peers) > 0 {
		return nil, fmt.Errorf("replica: Join mode takes no static peers (membership comes from the leader)")
	}
	n := &Node{
		cfg:         cfg,
		conf:        bootstrapConf(cfg),
		snapConf:    bootstrapConf(cfg),
		trans:       make(map[string]Transport, len(cfg.Peers)),
		promoting:   make(map[string]bool),
		lastContact: make(map[string]time.Time, len(cfg.Peers)),
		match:       make(map[string]uint64, len(cfg.Peers)),
		prog:        make(map[string]*progress, len(cfg.Peers)),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		streams:     make(map[io.Closer]struct{}),
		applyc:      make(chan struct{}, 1),
		stopc:       make(chan struct{}),
	}
	for id, tr := range cfg.Peers {
		n.trans[id] = tr
	}
	n.registerMetrics()
	return n, nil
}

// Start recovers the journal, restores the state machine through the
// full local log (safe: every acknowledged entry is quorum-persisted, so
// an unacknowledged local suffix is either adopted by the next leader or
// truncated by the conflict path), and launches the election and apply
// loops. An empty journal needs no snapshot: the machine restored from
// nothing is the genesis state, and a log not yet compacted streams to
// any follower from seq 1.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return fmt.Errorf("replica: Start called twice")
	}
	n.started = true
	n.mu.Unlock()

	if err := n.loadMeta(); err != nil {
		return err
	}
	snapBytes, recs, err := n.cfg.Journal.Recover()
	if err != nil {
		return fmt.Errorf("replica: recover journal: %w", err)
	}
	var smSnap []byte
	if snapBytes != nil {
		var sp snapPayload
		if err := json.Unmarshal(snapBytes, &sp); err != nil {
			return fmt.Errorf("replica: decode snapshot payload: %w", err)
		}
		n.snapTerm = sp.Term
		n.snapData = sp.State
		smSnap = sp.State
		if len(sp.Conf.Members) > 0 {
			n.snapConf = sp.Conf
		}
	}
	n.snapBase = n.cfg.Journal.SnapshotSeq()
	var datas [][]byte
	for _, r := range recs {
		var e Entry
		if err := json.Unmarshal(r.Data, &e); err != nil {
			return fmt.Errorf("replica: decode entry %d: %w", r.Seq, err)
		}
		if e.Seq != r.Seq {
			return fmt.Errorf("replica: entry %d carries seq %d", r.Seq, e.Seq)
		}
		n.tail = append(n.tail, e)
		if e.Conf != nil {
			n.tailConfs = append(n.tailConfs, e.Seq)
		} else if !e.Nop {
			datas = append(datas, e.Data)
		}
	}
	if err := n.cfg.SM.Restore(smSnap, datas); err != nil {
		return fmt.Errorf("replica: restore state machine: %w", err)
	}
	last := n.snapBase + uint64(len(n.tail))
	n.commitIndex, n.lastApplied, n.synced = last, last, last

	n.mu.Lock()
	// Fold any recovered configuration entries: like data entries, the
	// local tail is optimistically treated as committed at restart; a
	// conflict truncation later rolls the configuration back with it.
	n.recomputeConfLocked()
	// Boot: no leader is known to wait for, so the first deadline is the
	// jitter alone; pre-vote stickiness refuses the canvass of a node
	// restarting into a serving cluster. Every re-arm keeps the floor.
	n.resetElectionLocked(time.Now())
	n.electionDeadline = n.electionDeadline.Add(-n.cfg.ElectionTimeout)
	n.observeStateLocked()
	n.mu.Unlock()

	n.wg.Add(2)
	go n.tickLoop()
	go n.applyLoop()
	return nil
}

// Stop halts the node's loops, fails any parked proposals and closes
// its inbound streams and its peers' transports. The journal stays open
// (its owner closes it).
func (n *Node) Stop() {
	n.mu.Lock()
	running := n.started && !n.stopped
	n.stopped = true
	for _, w := range n.waiters {
		w.c <- ErrStopped
	}
	n.waiters = nil
	for c := range n.streams {
		c.Close()
	}
	for _, tr := range n.trans {
		if c, ok := tr.(io.Closer); ok {
			c.Close()
		}
	}
	n.mu.Unlock()
	if running {
		close(n.stopc)
		n.wg.Wait()
	}
}

// --- accessors ---

// MemberStatus is one row of the membership table in Status. Match, Lag
// and LastContactSeconds are the leader's view and are zero/negative on
// other roles (and for the leader's own row).
type MemberStatus struct {
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	Voter bool   `json:"voter"`
	Self  bool   `json:"self,omitempty"`
	// Match is the highest log index known replicated to this member.
	Match uint64 `json:"match,omitempty"`
	// Lag is the member's distance from the leader's log end.
	Lag uint64 `json:"lag,omitempty"`
	// LastContactSeconds is the age of the last successful RPC round
	// trip to this member (-1 when never heard from).
	LastContactSeconds float64 `json:"lastContactSeconds,omitempty"`
}

// Status is the observable replication state, mirrored in /healthz.
type Status struct {
	ID          string `json:"id"`
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	CommitIndex uint64 `json:"commitIndex"`
	LastSeq     uint64 `json:"lastSeq"`
	LastApplied uint64 `json:"lastApplied"`
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// Leader is the current leader's ID ("" while unknown).
	Leader string `json:"leader,omitempty"`
	// Ready reports a leader whose term barrier has committed (it can
	// acknowledge proposals).
	Ready bool `json:"ready"`
	Peers int  `json:"peers"`
	// Voter reports whether this node votes under the committed
	// configuration (false for learners and un-admitted joiners).
	Voter bool `json:"voter"`
	// ConfSeq is the log index of the committed configuration (0 for
	// the boot-time one); PendingConf reports an uncommitted change.
	ConfSeq     uint64         `json:"confSeq"`
	PendingConf bool           `json:"pendingConf,omitempty"`
	Members     []MemberStatus `json:"members,omitempty"`
	// ApplyError is why this node's applies halted: the state machine
	// refused a restore or a committed entry ("" while applies run).
	ApplyError string `json:"applyError,omitempty"`
}

// Status returns a point-in-time view of the node.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	lid := n.leaderID
	if n.role == Leader {
		lid = n.cfg.ID
	}
	now := time.Now()
	last := n.lastSeqLocked()
	members := make([]MemberStatus, 0, len(n.conf.Members))
	for _, m := range n.conf.Members {
		ms := MemberStatus{ID: m.ID, Addr: m.Addr, Voter: m.Voter, Self: m.ID == n.cfg.ID, LastContactSeconds: -1}
		if n.role == Leader && !ms.Self {
			ms.Match = n.match[m.ID]
			if last > ms.Match {
				ms.Lag = last - ms.Match
			}
			if lc, ok := n.lastContact[m.ID]; ok {
				ms.LastContactSeconds = now.Sub(lc).Seconds()
			}
		}
		members = append(members, ms)
	}
	return Status{
		ID:          n.cfg.ID,
		Role:        n.role.String(),
		Term:        n.term,
		CommitIndex: n.commitIndex,
		LastSeq:     last,
		LastApplied: n.lastApplied,
		SnapshotSeq: n.snapBase,
		Leader:      lid,
		Ready:       n.ready,
		Peers:       len(n.trans),
		Voter:       n.isVoterLocked(n.cfg.ID),
		ConfSeq:     n.conf.Seq,
		PendingConf: n.nextConfSeq != 0,
		Members:     members,
		ApplyError:  n.applyErr,
	}
}

// MemberAddr returns the advertised address of member id ("" when
// unknown) — the server uses it to build redirect URLs for members the
// static peer table has never heard of.
func (n *Node) MemberAddr(id string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.conf.member(id); ok {
		return m.Addr
	}
	return ""
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.cfg.ID }

// ForceRestore asks the apply loop to reset the state machine to the
// local snapshot and re-apply the committed log. The owner calls it when
// its state machine ran ahead of the replicated log: an operation was
// applied locally but its Propose failed, so the machine holds state the
// log may never commit. After the restore the machine again equals the
// committed prefix; if the orphaned entry commits later after all, the
// apply loop delivers it like any other committed entry.
func (n *Node) ForceRestore() {
	n.mu.Lock()
	n.restoreBase = true
	n.mu.Unlock()
	n.kickApply()
}

// --- log helpers (mu held) ---

func (n *Node) lastSeqLocked() uint64 { return n.snapBase + uint64(len(n.tail)) }

// termAtLocked returns the term of the entry at seq; ok is false when
// seq is below the snapshot base or past the log end.
func (n *Node) termAtLocked(seq uint64) (uint64, bool) {
	switch {
	case seq == n.snapBase:
		return n.snapTerm, true
	case seq > n.snapBase && seq <= n.lastSeqLocked():
		return n.tail[seq-n.snapBase-1].Term, true
	default:
		return 0, false
	}
}

// appendEntryLocked writes one entry to the journal and the in-memory
// tail. The journal assigns sequence numbers itself; the invariant that
// the replica log and the journal agree is asserted here. Configuration
// entries use their own record type and are forced to stable storage
// immediately, whatever the journal's fsync policy. deferSync leaves a
// data entry's SyncAlways fsync to the caller, which must Sync and then
// advance synced itself; every other append is durable under the policy
// on return, and its fsync covers every earlier record too.
func (n *Node) appendEntryLocked(e Entry, deferSync bool) error {
	if want := n.lastSeqLocked() + 1; e.Seq != want {
		return fmt.Errorf("replica: append seq %d, log expects %d", e.Seq, want)
	}
	deferSync = deferSync && e.Conf == nil && n.cfg.Journal.FsyncPolicy() == journal.SyncAlways
	var seq uint64
	var err error
	switch {
	case e.Conf != nil:
		seq, err = n.cfg.Journal.AppendSync(confRecordType, e)
	case deferSync:
		seq, err = n.cfg.Journal.AppendDeferred(recordType, e)
	default:
		seq, err = n.cfg.Journal.Append(recordType, e)
	}
	if err != nil {
		return err
	}
	if seq != e.Seq {
		return fmt.Errorf("replica: journal assigned seq %d to entry %d", seq, e.Seq)
	}
	n.tail = append(n.tail, e)
	if !deferSync {
		n.synced = e.Seq
	}
	if e.Conf != nil {
		n.tailConfs = append(n.tailConfs, e.Seq)
		if n.nextConfSeq == 0 {
			n.nextConfSeq = e.Seq
		}
	}
	return nil
}

// --- vote persistence ---

type metaState struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"votedFor"`
}

func (n *Node) loadMeta() error {
	path := filepath.Join(n.cfg.Journal.Dir(), metaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("replica: read vote state: %w", err)
	}
	var m metaState
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("replica: decode vote state: %w", err)
	}
	n.term, n.votedFor = m.Term, m.VotedFor
	return nil
}

// persistMetaLocked writes (term, votedFor) atomically. It must succeed
// before a vote is granted or a candidacy announced: a node that forgets
// its vote across a crash can hand two leaders the same term.
func (n *Node) persistMetaLocked() error {
	data, err := json.Marshal(metaState{Term: n.term, VotedFor: n.votedFor})
	if err != nil {
		return err
	}
	path := filepath.Join(n.cfg.Journal.Dir(), metaFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("replica: write vote state: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("replica: write vote state: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("replica: fsync vote state: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("replica: publish vote state: %w", err)
	}
	return nil
}

// --- apply loop ---

func (n *Node) kickApply() {
	select {
	case n.applyc <- struct{}{}:
	default:
	}
}

func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopc:
			return
		case <-n.applyc:
		}
		n.drainApply()
	}
}

// drainApply advances the state machine to the commit index (or to the
// log end during promotion), running any pending snapshot restore first.
// It is the only code path that calls SM.Apply or SM.Restore after
// Start, which serializes all state-machine writes.
func (n *Node) drainApply() {
	for {
		n.mu.Lock()
		if n.restoreBase {
			n.restoreBase = false
			snap := n.snapData
			base := n.snapBase
			// No log position is applied while the machine is rebuilt:
			// Status must not report one, and a promotion must not pass its
			// applied-to-the-end wait, while reads still see the old state.
			n.lastApplied = 0
			n.mu.Unlock()
			if err := n.cfg.SM.Restore(snap, nil); err != nil {
				n.mu.Lock()
				n.applyErr = "state machine restore: " + err.Error()
				n.mu.Unlock()
				return
			}
			n.mu.Lock()
			n.lastApplied = base
			n.applyErr = ""
			n.mu.Unlock()
			continue
		}
		if n.promoteApply != nil && n.lastApplied >= n.promoteTo {
			close(n.promoteApply) // promote may append its barrier
			n.promoteApply = nil
		}
		limit := n.commitIndex
		if n.promoteApply != nil {
			limit = n.lastSeqLocked()
		}
		if n.lastApplied >= limit || n.lastApplied < n.snapBase {
			n.mu.Unlock()
			return
		}
		e := n.tail[n.lastApplied-n.snapBase]
		n.mu.Unlock()
		if !e.Nop && e.Conf == nil {
			if err := n.cfg.SM.Apply(e.Data); err != nil {
				n.mu.Lock()
				n.applyErr = fmt.Sprintf("apply entry %d: %v", e.Seq, err)
				n.mu.Unlock()
				return
			}
		}
		n.mu.Lock()
		n.lastApplied = e.Seq
		n.applyErr = ""
		n.mu.Unlock()
		n.maybeSnapshot()
	}
}

// maybeSnapshot starts an asynchronous journal snapshot when the cadence
// is due and a cut could land now — checked before the export, since a
// follower learns an entry's commit only with the next append and under
// a steady stream can rarely cut. A follower then holds its log still
// until the cut lands (an append during the export would void it); the
// leader commits meanwhile through its own copy and the other follower.
// A leader takes no hold: the owner proposes under the state-machine
// lock the export holds, and must not wait on an export waiting on it.
func (n *Node) maybeSnapshot() {
	if n.cfg.SnapshotEvery <= 0 {
		return
	}
	n.mu.Lock()
	if n.snapshotting || len(n.tail) < n.cfg.SnapshotEvery || !n.cutReadyLocked() {
		n.mu.Unlock()
		return
	}
	n.snapshotting = true
	var hold chan struct{}
	if n.role == Follower {
		hold = make(chan struct{})
		n.cutHold = hold
	}
	n.mu.Unlock()
	go func() {
		err := n.snapshotNow()
		n.mu.Lock()
		n.snapshotting = false
		if hold != nil {
			close(hold)
			n.cutHold = nil
		}
		n.mu.Unlock()
		if err != nil {
			n.countSnapshot("failed")
		}
	}()
}

// awaitCutLocked parks a follower's log change while its snapshot cut
// exports. Called and returns with n.mu held.
func (n *Node) awaitCutLocked() {
	for n.cutHold != nil {
		hold := n.cutHold
		n.mu.Unlock()
		<-hold
		n.mu.Lock()
	}
}

// cutReadyLocked reports whether a snapshot stamped at the log end would
// cover exactly the applied state: the whole log is applied and
// committed. The commit check keeps snapConf exact — the committed
// configuration covers every entry the snapshot would.
func (n *Node) cutReadyLocked() bool {
	last := n.lastSeqLocked()
	return n.lastApplied == last && n.commitIndex == last
}

// snapshotNow cuts a snapshot at the current log end. The SnapshotWith
// callback holds the state-machine lock (freezing lastApplied) and takes
// the node lock (freezing the journal sequence — every append happens
// under it), so the exported state provably covers exactly the stamped
// sequence number; if the log moved during the export anyway (a leader's
// membership change, a role change) the cut is skipped, counted, and
// retried at the next chance.
func (n *Node) snapshotNow() error {
	return n.cfg.SM.SnapshotWith(func(state []byte) error {
		n.mu.Lock()
		defer n.mu.Unlock()
		if !n.cutReadyLocked() {
			n.countSnapshot("skipped")
			return nil
		}
		last := n.lastSeqLocked()
		term, _ := n.termAtLocked(last)
		if err := n.cfg.Journal.WriteSnapshot(snapPayload{Term: term, Conf: n.conf, State: state}); err != nil {
			return err
		}
		n.snapBase, n.snapTerm = last, term
		n.snapConf = n.conf
		n.snapData = append([]byte(nil), state...)
		n.tail, n.tailConfs = nil, nil
		n.nextConfSeq = 0
		n.countSnapshot("cut")
		return nil
	})
}
