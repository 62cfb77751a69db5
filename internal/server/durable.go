package server

import (
	"fmt"
	"time"

	"sparcle/internal/journal"
	"sparcle/internal/shard"
)

// metricRecovery reports how long the last journal recovery took.
const metricRecovery = "sparcle_recovery_seconds"

// EnableJournal makes every mutating operation durable: the journal at
// dir is opened and recovered, a router byte-equal to the pre-crash one
// is rebuilt from snapshot + bounded replay, and from then on each
// operation appends its one record before the HTTP response acks it. Every
// snapshotEvery records a snapshot bounds future replay (at or below 0,
// none is cut). The journal's format is shard's codec: with one
// region, bare core records and snapshots.
//
// An empty journal needs no snapshot: a fresh router is a function of
// the network alone, so replay from nothing rebuilds the same bytes, and
// the hook is armed on the live router.
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
	k := s.rt().NumShards()
	// The hook runs under the committing operation's shard locks; the
	// journal serializes concurrent appends internally. Snapshots cannot
	// be cut here — the router's consistent export takes every shard
	// lock, including the ones the committing operation holds — so the
	// hook only flags the cadence and a background goroutine writes the
	// snapshot via SnapshotWith, which holds all locks across export AND
	// write so no record can land in between and be skipped by a later
	// replay.
	hook := func(env *shard.Envelope) error {
		if _, err := j.AppendSpan(env.Span, "op", shard.EncodeEnvelope(k, env)); err != nil {
			return err
		}
		if snapshotEvery > 0 && j.SinceSnapshot() >= snapshotEvery &&
			s.snapshotting.CompareAndSwap(false, true) {
			go s.writeSnapshot(j)
		}
		return nil
	}
	if len(snapBytes) == 0 && len(recs) == 0 {
		s.rt().SetEnvelopeHook(hook)
	} else {
		entries := make([][]byte, len(recs))
		for i := range recs {
			entries[i] = recs[i].Data
		}
		if err := s.restore(snapBytes, entries, hook); err != nil {
			j.Close()
			return err
		}
	}
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()

	s.metrics.Gauge(metricRecovery).Set(time.Since(start).Seconds())
	return nil
}

// restore replaces the router with one replayed from a journal snapshot
// and the entries after it — journal recovery and a replicated restore
// are this one operation — re-arming spans and hook on the replayed
// instance (which builds its own per-shard committers). It writes
// nothing: every entry is a whole router operation, so the replayed
// state needs no repair. The replay reads only the immutable network and
// the decoded log; the swap is one store.
func (s *Server) restore(snapBytes []byte, entries [][]byte, hook shard.EnvelopeHook) error {
	k := s.rt().NumShards()
	snap, envs, err := shard.DecodeLog(k, snapBytes, entries)
	if err != nil {
		return err
	}
	s.mu.Lock()
	spans := s.spans
	s.mu.Unlock()
	rebuilt, err := shard.Replay(s.net, k, snap, envs, s.rebuildShard)
	if err != nil {
		return fmt.Errorf("rebuild router: %w", err)
	}
	rebuilt.SetSpans(spans)
	rebuilt.SetEnvelopeHook(hook)
	s.router.Store(rebuilt)
	return nil
}

// writeSnapshot is the journal hook's background snapshot: one
// consistent router snapshot written into j. Failures are counted, not
// fatal: the journal still holds every record, so recovery just replays
// a longer tail.
func (s *Server) writeSnapshot(j *journal.Journal) {
	defer s.snapshotting.Store(false)
	rt := s.rt()
	err := rt.SnapshotWith(func(snap *shard.RouterSnapshot) error {
		return j.WriteSnapshot(shard.EncodeSnapshot(rt.NumShards(), snap))
	})
	if err != nil {
		s.metrics.Counter("sparcle_snapshot_errors_total").Inc()
	}
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
