package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"sparcle/internal/journal"
	"sparcle/internal/replica"
	"sparcle/internal/shard"
)

// Replication wiring. EnableReplication turns the server into one member
// of a 3-node replicated control plane (internal/replica): every
// mutating operation's journal entry is proposed through the replica
// node and acknowledged only after a quorum holds it, followers keep a
// hot router by applying committed entries continuously, and the
// middleware redirects writes to the leader (421 with a Location
// header). The log holds exactly what the journal would (shard's codec).

// ReplicationConfig assembles EnableReplication.
type ReplicationConfig struct {
	// NodeID names this node; it must be a key of Peers.
	NodeID string
	// Peers maps every cluster node's ID — this node included — to the
	// base URL of its HTTP API (e.g. "http://10.0.0.1:8080").
	Peers map[string]string
	// Dir is this node's journal directory.
	Dir string
	// Journal configures the node's write-ahead journal.
	Journal journal.Options
	// SnapshotEvery is the record count between journal snapshots; at
	// or below 0 the node cuts none.
	SnapshotEvery int
	// Heartbeat and ElectionTimeout tune the leader lease (defaults
	// 100ms and 10x the heartbeat).
	Heartbeat       time.Duration
	ElectionTimeout time.Duration
	// Seed seeds the election jitter (0 = time-seeded).
	Seed int64
	// Join boots this node as a cluster joiner: it starts with an EMPTY
	// membership (Peers then only needs this node's own id=url, its
	// advertised address) and stays a passive learner until an existing
	// leader admits it via POST /repl/members. The leader streams it the
	// log — through the snapshot path when the joiner is far behind — and
	// promotes it to voter once it has caught up.
	Join bool
}

// EnableReplication opens the node's journal and starts the replica.
// It replaces EnableJournal — the replica node owns journal recovery —
// and must run before the server takes traffic. The state machine
// restore that Start performs rebuilds the router exactly like journal
// recovery would, so a restarted node resumes from its local log and
// then heals any divergence against the current leader.
func (s *Server) EnableReplication(cfg ReplicationConfig) error {
	s.mu.Lock()
	armed := s.journal != nil || s.replica != nil
	s.mu.Unlock()
	if armed {
		return errors.New("server: replication and EnableJournal are mutually exclusive (the replica owns the journal)")
	}
	if _, ok := cfg.Peers[cfg.NodeID]; !ok {
		return fmt.Errorf("server: replication peers must include this node (%q)", cfg.NodeID)
	}
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	start := time.Now()

	opt := cfg.Journal
	if opt.Metrics == nil {
		opt.Metrics = s.metrics
	}
	j, err := journal.Open(cfg.Dir, opt)
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}

	sm := &replSM{s: s}
	peers := make(map[string]replica.Transport, len(cfg.Peers)-1)
	if !cfg.Join {
		// A joiner has no static peers: its membership (and so its
		// transports) arrive with the committed configuration stream.
		for id, url := range cfg.Peers {
			if id != cfg.NodeID {
				peers[id] = replica.NewHTTPTransport(url, nil)
			}
		}
	}
	// Mix the node ID into the election-jitter seed: operators naturally
	// start every node with the same -seed, and identical jitter streams
	// make candidates collide round after round (split votes, no leader).
	seed := cfg.Seed
	if seed != 0 {
		h := fnv.New64a()
		h.Write([]byte(cfg.NodeID))
		seed ^= int64(h.Sum64())
	}
	node, err := replica.New(replica.Config{
		ID:    cfg.NodeID,
		Peers: peers,
		Addrs: cfg.Peers,
		Join:  cfg.Join,
		// Members added at runtime dial their advertised address.
		TransportFactory: func(id, addr string) replica.Transport {
			return replica.NewHTTPTransport(addr, nil)
		},
		Journal:         j,
		SM:              sm,
		SnapshotEvery:   cfg.SnapshotEvery,
		Heartbeat:       cfg.Heartbeat,
		ElectionTimeout: cfg.ElectionTimeout,
		Metrics:         s.metrics,
		Seed:            seed,
	})
	if err != nil {
		j.Close()
		return err
	}

	// Publish before Start: the restore Start performs arms the propose
	// hook, which proposes through s.replica.
	s.mu.Lock()
	s.journal = j
	s.replica = node
	s.replH = node.Handler()
	s.replPeers = cfg.Peers
	s.mu.Unlock()

	if err := node.Start(); err != nil {
		s.mu.Lock()
		s.journal = nil
		s.replica = nil
		s.replH = nil
		s.mu.Unlock()
		j.Close()
		return fmt.Errorf("start replica: %w", err)
	}

	s.metrics.Gauge(metricRecovery).Set(time.Since(start).Seconds())
	return nil
}

// Replica returns the server's replication node, nil unless
// EnableReplication succeeded. Tests use it to observe roles and terms.
func (s *Server) Replica() *replica.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica
}

// handleRepl forwards a peer's stream upgrade to the replica node. The
// route exists before EnableReplication runs (see Handler), so it
// resolves the node per request; peers dialing a node whose replica is
// not up yet get a 503 and dial again with their next heartbeat.
func (s *Server) handleRepl(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.replH
	s.mu.Unlock()
	if h == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "replication not enabled"})
		return
	}
	h.ServeHTTP(w, r)
}

// memberChangeRequest is the body of POST /repl/members.
type memberChangeRequest struct {
	// Action is "add" (admit ID at URL as a learner), "promote" (turn a
	// caught-up learner into a voter) or "remove" (drop ID — the leader
	// itself may be removed; it hands off after the change commits).
	Action string `json:"action"`
	ID     string `json:"id"`
	URL    string `json:"url,omitempty"`
}

// membersResponse is the body of GET /repl/members (and of a successful
// change): the committed configuration as this node knows it.
type membersResponse struct {
	ConfSeq uint64                 `json:"confSeq"`
	Pending bool                   `json:"pendingChange"`
	Leader  string                 `json:"leader,omitempty"`
	Members []replica.MemberStatus `json:"members"`
}

func (s *Server) membersView(n *replica.Node) membersResponse {
	st := n.Status()
	resp := membersResponse{ConfSeq: st.ConfSeq, Pending: st.PendingConf, Leader: st.Leader, Members: st.Members}
	if resp.Members == nil {
		resp.Members = []replica.MemberStatus{}
	}
	return resp
}

// handleMembersGet reports the committed membership. Served by any node
// (followers too): operators diff the answers to see a change propagate.
func (s *Server) handleMembersGet(w http.ResponseWriter, r *http.Request) {
	n := s.Replica()
	if n == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "replication not enabled"})
		return
	}
	writeJSON(w, http.StatusOK, s.membersView(n))
}

// handleMembersChange applies one membership change through the leader.
// The /repl/ prefix is exempt from the write gate, so leadership is
// enforced here by the replica itself: a follower answers 421 with the
// same redirect contract as any other write.
func (s *Server) handleMembersChange(w http.ResponseWriter, r *http.Request) {
	n := s.Replica()
	if n == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "replication not enabled"})
		return
	}
	var req memberChangeRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decode member change: %v", err)})
		return
	}
	if req.ID == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "member change needs an id"})
		return
	}
	var err error
	switch req.Action {
	case "add":
		if req.URL == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: `action "add" needs the new member's url`})
			return
		}
		err = n.AddMember(req.ID, strings.TrimSuffix(req.URL, "/"))
	case "promote":
		err = n.PromoteMember(req.ID)
	case "remove":
		err = n.RemoveMember(req.ID)
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown action %q (want add, promote or remove)", req.Action)})
		return
	}
	var nl *replica.NotLeaderError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, s.membersView(n))
	case errors.As(err, &nl):
		url := s.leaderBaseURL(n, nl.LeaderID)
		if url == "" {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no leader elected yet; retry shortly"})
			return
		}
		w.Header().Set("Location", url+r.URL.RequestURI())
		writeJSON(w, http.StatusMisdirectedRequest, redirectResponse{Error: "not the leader", Leader: nl.LeaderID, URL: url})
	case errors.Is(err, replica.ErrConfChangeInFlight), errors.Is(err, replica.ErrLearnerLagging):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case errors.Is(err, replica.ErrUnknownMember):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case errors.Is(err, replica.ErrNoQuorum), errors.Is(err, replica.ErrNotReady), errors.Is(err, replica.ErrStopped):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// propose is the router's envelope hook under replication: the envelope
// is committed by quorum instead of a local fsync alone (the local
// append inside Propose still honors the fsync policy). On failure the
// local state has applied an operation the log did not commit, so the
// state machine is reset to the committed prefix before the error
// (wrapped in ErrDurability upstream) fails the request.
func (s *Server) propose(env *shard.Envelope) error {
	data, err := json.Marshal(shard.EncodeEnvelope(s.rt().NumShards(), env))
	if err != nil {
		return err
	}
	if err := s.replica.Propose(data); err != nil {
		s.replica.ForceRestore()
		return err
	}
	return nil
}

// replicaWriteGate admits a mutating request only on a ready leader
// whose state machine has caught up with its log; otherwise it answers
// 421 (follower, leader known — with a Location header pointing at the
// leader) or 503 (no leader yet / leader still catching up). Returns true
// when the request may proceed.
func (s *Server) replicaWriteGate(w http.ResponseWriter, r *http.Request) bool {
	n := s.replica
	if n == nil {
		return true
	}
	st := n.Status()
	switch {
	case st.Role == "leader" && st.Ready && st.LastApplied == st.LastSeq:
		return true
	case st.Role == "leader":
		// Term barrier still committing, or a failed propose reset the
		// state machine and the committed tail is still re-applying.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "leader not ready; retry shortly"})
		return false
	default:
		url := s.leaderBaseURL(n, st.Leader)
		if url == "" {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no leader elected yet; retry shortly"})
			return false
		}
		w.Header().Set("Location", url+r.URL.RequestURI())
		writeJSON(w, http.StatusMisdirectedRequest, redirectResponse{
			Error:  "not the leader",
			Leader: st.Leader,
			URL:    url,
		})
		return false
	}
}

// leaderBaseURL resolves the leader's base URL for redirects: the
// static bootstrap peer map first, then the committed membership's
// advertised address (members added at runtime are only known there).
func (s *Server) leaderBaseURL(n *replica.Node, leaderID string) string {
	if leaderID == "" {
		return ""
	}
	if url := s.replPeers[leaderID]; url != "" {
		return url
	}
	return strings.TrimSuffix(n.MemberAddr(leaderID), "/")
}

// redirectResponse is the 421 body a follower answers writes with.
type redirectResponse struct {
	Error string `json:"error"`
	// Leader is the leader's node ID; URL its base address. The Location
	// header carries the full redirect target.
	Leader string `json:"leader"`
	URL    string `json:"leaderUrl"`
}

// replicationHealth is the /healthz replication section: the node's
// Status plus the leader's base URL for clients that follow redirects.
type replicationHealth struct {
	replica.Status
	LeaderURL string `json:"leaderUrl,omitempty"`
}

func (s *Server) replicationHealth() *replicationHealth {
	s.mu.Lock()
	n, peers := s.replica, s.replPeers
	s.mu.Unlock()
	if n == nil {
		return nil
	}
	st := n.Status()
	url := peers[st.Leader]
	if url == "" {
		url = s.leaderBaseURL(n, st.Leader)
	}
	return &replicationHealth{Status: st, LeaderURL: url}
}

// --- replicated state machine ---

// replSM replicates the router through the same envelope stream it
// journals. Followers stay hot: each committed envelope, one whole router
// operation, applies through Router.Apply as it arrives, so a follower
// promoted at any point holds whole operations and routes every resident
// by name. A snapshot is the router's consistent export, and a restore
// swaps in the router replayed from a snapshot and the entries after it,
// with the propose hook armed. On a steady leader the live router is the
// source of truth: operations mutate it before they are proposed, and
// nothing is applied twice.
type replSM struct {
	s *Server

	// mu orders Restore against SnapshotWith, so that a snapshot of the
	// router it loaded is never stamped after a restore replaced that
	// router.
	mu sync.Mutex
}

func (m *replSM) Apply(data []byte) error {
	rt := m.s.rt()
	env, err := shard.DecodeEnvelope(rt.NumShards(), data)
	if err != nil {
		return fmt.Errorf("decode replicated envelope: %w", err)
	}
	return rt.Apply(env)
}

func (m *replSM) SnapshotWith(write func(state []byte) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt := m.s.rt()
	return rt.SnapshotWith(func(snap *shard.RouterSnapshot) error {
		data, err := json.Marshal(shard.EncodeSnapshot(rt.NumShards(), snap))
		if err != nil {
			return err
		}
		return write(data)
	})
}

func (m *replSM) Restore(snap []byte, entries [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.restore(snap, entries, m.s.propose)
}
