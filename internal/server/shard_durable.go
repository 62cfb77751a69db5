package server

import (
	"fmt"

	"sparcle/internal/core"
	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/shard"
)

// Shard-mode durability. The journal stores opaque JSON, so the sharded
// control plane reuses it unchanged: records are shard.Envelope (a
// scheduler record tagged with its shard, or a router-level lease /
// border-scale mutation) and snapshots are shard.RouterSnapshot (one
// scheduler snapshot per region plus the border state). Recovery
// demultiplexes the envelope stream through shard.Rebuild, which also
// reconciles cross-region operations a crash tore mid-way.

// journalRouter is journalSched for a NewSharded server.
func (s *Server) journalRouter(j *journal.Journal, snapshotEvery int, snapBytes []byte, entries [][]byte) error {
	// The hook runs under the committing shard's lock (or the border
	// mutex for lease envelopes); the journal serializes concurrent
	// appends internally. Snapshots cannot be cut here — the router's
	// consistent export takes every shard lock, including the one the
	// committing operation holds — so the hook only flags the cadence
	// and a background goroutine writes the snapshot via SnapshotWith,
	// which holds all locks across export AND write so no record can
	// land in between and be skipped by a later replay.
	hook := func(env *shard.Envelope) error {
		if _, err := j.Append("op", env); err != nil {
			return err
		}
		if snapshotEvery > 0 && j.SinceSnapshot() >= snapshotEvery &&
			s.snapshotting.CompareAndSwap(false, true) {
			go s.writeShardSnapshot(j)
		}
		return nil
	}
	if len(snapBytes) > 0 || len(entries) > 0 {
		return s.restoreRouter(snapBytes, entries, hook)
	}
	// Fresh journal: pin the initial state of every shard (seeds
	// included) before the first operation can be acknowledged.
	rt := s.rt()
	rt.SetEnvelopeHook(hook)
	if err := rt.SnapshotWith(func(snap *shard.RouterSnapshot) error {
		return j.WriteSnapshot(snap)
	}); err != nil {
		return fmt.Errorf("write genesis snapshot: %w", err)
	}
	return nil
}

// restoreRouter replaces the router with one rebuilt from a snapshot
// and the envelopes after it — journal recovery and a replicated
// follower's materialize are this one operation — re-arming spans, hook
// and the per-shard committers on the rebuilt instance.
func (s *Server) restoreRouter(snapBytes []byte, entries [][]byte, hook shard.EnvelopeHook) error {
	snap, envs, err := decodeLog[shard.RouterSnapshot, shard.Envelope](snapBytes, entries)
	if err != nil {
		return err
	}
	s.mu.Lock()
	opts, spans, groupOpt := s.opts, s.spans, s.groupOpt
	s.mu.Unlock()
	rebuilt, err := shard.Rebuild(s.net, s.shards, snap, envs,
		func(sub *network.Network, region int, ss *core.Snapshot, rs []*core.Record) (core.Control, error) {
			return core.Rebuild(sub, ss, rs, opts...)
		})
	if err != nil {
		return fmt.Errorf("rebuild sharded scheduler: %w", err)
	}
	if spans != nil {
		rebuilt.SetSpans(spans)
	}
	rebuilt.SetEnvelopeHook(hook)
	rebuilt.EnableGroupCommit(groupOpt)
	s.router.Store(rebuilt)
	return nil
}

// writeShardSnapshot cuts one consistent router snapshot into the
// journal. Failures are counted, not fatal: the journal still holds
// every record, so recovery just replays a longer tail.
func (s *Server) writeShardSnapshot(j *journal.Journal) {
	defer s.snapshotting.Store(false)
	err := s.rt().SnapshotWith(func(snap *shard.RouterSnapshot) error {
		return j.WriteSnapshot(snap)
	})
	if err != nil {
		s.metrics.Counter("sparcle_snapshot_errors_total").Inc()
	}
}
