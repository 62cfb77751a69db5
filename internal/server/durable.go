package server

import (
	"fmt"
	"time"

	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/shard"
)

// metricRecovery reports how long the last journal recovery took.
const metricRecovery = "sparcle_recovery_seconds"

// EnableJournal makes every mutating operation durable: the journal at
// dir is opened and recovered, a router byte-equal to the pre-crash one
// is rebuilt from snapshot + bounded replay, and from then on each
// operation appends its one record before the HTTP response acks it. Every
// snapshotEvery records a snapshot bounds future replay (0 disables
// periodic snapshots). The journal's format is shard's codec: with one
// region, bare core records and snapshots.
//
// On an empty journal a genesis snapshot of the current (fresh) router
// is written first: it pins every region's initial state, so a later
// restart replays onto the same bytes.
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
	if len(snapBytes) > 0 || len(recs) > 0 {
		entries := make([][]byte, len(recs))
		for i := range recs {
			entries[i] = recs[i].Data
		}
		err = s.restore(snapBytes, entries, hook)
	} else {
		// Fresh journal: pin the initial state of every shard before the
		// first operation can be acknowledged.
		s.rt().SetEnvelopeHook(hook)
		if err = s.snapshotTo(j); err != nil {
			err = fmt.Errorf("write genesis snapshot: %w", err)
		}
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

// restore replaces the router with one replayed from a journal snapshot
// and the entries after it — journal recovery and a replicated restore
// are this one operation — re-arming spans, hook and the per-shard
// committers on the replayed instance. It writes nothing: every entry is
// a whole router operation, so the replayed state needs no repair. The
// replay reads only the immutable network and the decoded log; the swap
// is one store.
func (s *Server) restore(snapBytes []byte, entries [][]byte, hook shard.EnvelopeHook) error {
	k := s.rt().NumShards()
	snap, envs, err := shard.DecodeLog(k, snapBytes, entries)
	if err != nil {
		return err
	}
	s.mu.Lock()
	opts, spans, groupOpt := s.opts, s.spans, s.groupOpt
	s.mu.Unlock()
	rebuilt, err := shard.Replay(s.net, k, snap, envs,
		func(sub *network.Network, region int, ss *core.Snapshot, rs []*core.Record) (core.Control, error) {
			return core.Rebuild(sub, ss, rs, opts...)
		})
	if err != nil {
		return fmt.Errorf("rebuild router: %w", err)
	}
	rebuilt.SetSpans(spans)
	rebuilt.SetEnvelopeHook(hook)
	rebuilt.EnableGroupCommit(groupOpt)
	s.router.Store(rebuilt)
	return nil
}

// snapshotTo writes one consistent router snapshot into j.
func (s *Server) snapshotTo(j *journal.Journal) error {
	rt := s.rt()
	return rt.SnapshotWith(func(snap *shard.RouterSnapshot) error {
		return j.WriteSnapshot(shard.EncodeSnapshot(rt.NumShards(), snap))
	})
}

// writeSnapshot is the journal hook's background snapshot. Failures are
// counted, not fatal: the journal still holds every record, so recovery
// just replays a longer tail.
func (s *Server) writeSnapshot(j *journal.Journal) {
	defer s.snapshotting.Store(false)
	if err := s.snapshotTo(j); err != nil {
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
