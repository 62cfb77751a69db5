package server

import (
	"encoding/json"
	"fmt"
	"time"

	"sparcle/internal/core"
	"sparcle/internal/journal"
)

// metricRecovery reports how long the last journal recovery took.
const metricRecovery = "sparcle_recovery_seconds"

// EnableJournal makes every mutating scheduler operation durable: the
// journal at dir is opened and recovered, a scheduler byte-equal to the
// pre-crash one is rebuilt from snapshot + bounded replay, and from then
// on each operation appends its outcome record before the HTTP response
// acks it. Every snapshotEvery records a snapshot bounds future replay
// (0 disables periodic snapshots).
//
// On an empty journal a genesis snapshot of the current (fresh) scheduler
// is written first: it pins the RNG seed, so a later restart with a
// different -seed flag recovers the original stream instead of silently
// diverging.
//
// While recovery runs, the server answers mutating routes with 503 (see
// middleware); GETs stay available.
func (s *Server) EnableJournal(dir string, opt journal.Options, snapshotEvery int) error {
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	start := time.Now()

	if opt.Metrics == nil {
		opt.Metrics = s.metrics
	}
	j, err := journal.Open(dir, opt)
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	snapBytes, recs, err := j.Recover()
	if err != nil {
		j.Close()
		return fmt.Errorf("recover journal: %w", err)
	}
	entries := make([][]byte, len(recs))
	for i := range recs {
		entries[i] = recs[i].Data
	}
	if s.rt() != nil {
		err = s.journalRouter(j, snapshotEvery, snapBytes, entries)
	} else {
		err = s.journalSched(j, snapshotEvery, snapBytes, entries)
	}
	if err != nil {
		j.Close()
		return err
	}
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()

	s.metrics.SetHelp(metricRecovery, "Duration of the last journal recovery in seconds.")
	s.metrics.Gauge(metricRecovery).Set(time.Since(start).Seconds())
	return nil
}

// journalSched puts the unsharded scheduler behind j: a non-empty
// journal is replayed into a rebuilt scheduler, an empty one receives
// the genesis snapshot, and either way every later operation appends
// its outcome record through the commit hook.
func (s *Server) journalSched(j *journal.Journal, snapshotEvery int, snapBytes []byte, entries [][]byte) error {
	hook := func(rec *core.Record) error {
		// The hook runs inside a scheduler operation, so its append (and
		// fsync) spans nest under that operation's span; with spans
		// disabled OpSpan is nil and AppendSpan behaves exactly as Append.
		if _, err := j.AppendSpan(s.sched.OpSpan(), "op", rec); err != nil {
			return err
		}
		if snapshotEvery > 0 && j.SinceSnapshot() >= snapshotEvery {
			ssp := s.sched.OpSpan().Child("journal.snapshot")
			defer ssp.End()
			snap, err := s.sched.ExportSnapshot()
			if err != nil {
				return fmt.Errorf("export snapshot: %w", err)
			}
			if err := j.WriteSnapshot(snap); err != nil {
				return fmt.Errorf("write snapshot: %w", err)
			}
		}
		return nil
	}
	if len(snapBytes) > 0 || len(entries) > 0 {
		return s.restoreSched(snapBytes, entries, hook)
	}
	// Fresh journal: pin the initial state (seed included) before the
	// first operation can be acknowledged.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sched.SetCommitHook(hook)
	snap, err := s.sched.ExportSnapshot()
	if err != nil {
		return fmt.Errorf("export genesis snapshot: %w", err)
	}
	if err := j.WriteSnapshot(snap); err != nil {
		return fmt.Errorf("write genesis snapshot: %w", err)
	}
	return nil
}

// decodeLog decodes a state snapshot (nil when snapBytes is empty) and
// the records committed after it.
func decodeLog[S, R any](snapBytes []byte, entries [][]byte) (*S, []*R, error) {
	var snap *S
	if len(snapBytes) > 0 {
		snap = new(S)
		if err := json.Unmarshal(snapBytes, snap); err != nil {
			return nil, nil, fmt.Errorf("decode snapshot: %w", err)
		}
	}
	recs := make([]*R, len(entries))
	for i := range entries {
		recs[i] = new(R)
		if err := json.Unmarshal(entries[i], recs[i]); err != nil {
			return nil, nil, fmt.Errorf("decode record %d: %w", i, err)
		}
	}
	return snap, recs, nil
}

// restoreSched replaces the scheduler with one rebuilt from a snapshot
// and the records after it, with hook armed on it — journal recovery and
// a replicated restore are this one operation. The rebuild runs off the
// lock (it reads only the immutable network and the decoded log); the
// swap takes it.
func (s *Server) restoreSched(snapBytes []byte, entries [][]byte, hook core.CommitHook) error {
	snap, recs, err := decodeLog[core.Snapshot, core.Record](snapBytes, entries)
	if err != nil {
		return err
	}
	s.mu.Lock()
	opts := s.opts
	s.mu.Unlock()
	rebuilt, err := core.Rebuild(s.net, snap, recs, opts...)
	if err != nil {
		return fmt.Errorf("rebuild scheduler: %w", err)
	}
	rebuilt.SetCommitHook(hook)
	s.mu.Lock()
	s.sched = rebuilt
	s.mu.Unlock()
	return nil
}

// Close stops the replication node (if any) and releases the server's
// journal, flushing buffered appends. The node stops first: its apply
// loop may still be writing journal records, and Stop waits for it.
func (s *Server) Close() error {
	s.mu.Lock()
	node := s.replica
	j := s.journal
	s.journal = nil
	s.mu.Unlock()
	if node != nil {
		node.Stop()
	}
	if j == nil {
		return nil
	}
	return j.Close()
}

// Journal returns the server's journal, nil unless EnableJournal
// succeeded. Tests use it to snapshot or inspect on demand.
func (s *Server) Journal() *journal.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}
