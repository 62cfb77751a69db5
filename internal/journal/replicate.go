package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file holds the two primitives the replication layer
// (internal/replica) needs beyond append/recover:
//
//   - TruncateTo drops every record after a sequence number. A follower
//     uses it when the leader's log disagrees with its tail — the
//     follower's suffix was never quorum-acknowledged, so discarding it
//     is safe by construction.
//   - InstallSnapshot replaces the entire journal with one snapshot at a
//     given sequence number. A lagging or freshly joined follower uses it
//     when the leader has already compacted the records it is missing.
//
// Both keep the journal's crash discipline: every destructive step is
// ordered so that a crash at any point recovers to either the old state
// or the new one, never to a mix that replays divergent records.

// SnapshotSeq returns the sequence number covered by the newest snapshot
// (0 if none has been written).
func (j *Journal) SnapshotSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapSeq
}

// TruncateTo removes every record with sequence number greater than seq.
// Truncating below the newest snapshot is an error (the snapshot already
// covers those records; the caller wants InstallSnapshot instead).
// Appends after TruncateTo continue at seq+1 in a fresh segment.
func (j *Journal) TruncateTo(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if !j.recovered {
		return fmt.Errorf("journal: TruncateTo before Recover")
	}
	if seq >= j.seq {
		return nil
	}
	if seq < j.snapSeq {
		return fmt.Errorf("journal: truncate to %d below snapshot %d", seq, j.snapSeq)
	}
	if j.f != nil {
		// The kept prefix may hold unsynced records; appends after the cut
		// go to a fresh segment, so their fsyncs would never cover these.
		if j.dirty {
			if err := j.fsyncLocked(); err != nil {
				return err
			}
		}
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: close segment: %w", err)
		}
		j.f = nil
	}
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: read %s: %w", j.dir, err)
	}
	for _, s := range listSegments(entries) {
		path := filepath.Join(j.dir, s.name)
		if s.start > seq {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("journal: drop segment %s: %w", s.name, err)
			}
			continue
		}
		if err := truncateSegment(path, seq); err != nil {
			return err
		}
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	j.seq = seq
	j.sinceSnap = int(seq - j.snapSeq)
	j.dirty = false
	return nil
}

// truncateSegment cuts path at the first frame whose record sequence
// exceeds seq, fsyncing the shortened file.
func truncateSegment(path string, seq uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: read segment: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, ok := nextFrame(data[off:])
		if !ok || rec.Seq > seq {
			break
		}
		off += n
	}
	if off == len(data) {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("journal: truncate segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync truncated segment: %w", err)
	}
	return nil
}

// InstallSnapshot replaces the whole journal with a single snapshot of
// state covering every record up to seq: the snapshot-catch-up path for a
// follower whose log cannot be repaired by record streaming. The step
// order makes a crash at any point recoverable: segments are deleted
// while the OLD snapshot still loads (recovering to a farther-behind but
// consistent state the leader will simply catch up again), and only then
// is the new snapshot published and the old generation pruned.
func (j *Journal) InstallSnapshot(seq uint64, state any) error {
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	frame, err := encodeFrame(seq, "snapshot", payload)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if !j.recovered {
		return fmt.Errorf("journal: InstallSnapshot before Recover")
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: close segment: %w", err)
		}
		j.f = nil
	}
	final := filepath.Join(j.dir, snapName(seq))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, frame); err != nil {
		return err
	}
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: read %s: %w", j.dir, err)
	}
	// Divergent records must not survive next to the new snapshot: a
	// leftover record with a sequence number above seq would replay as if
	// it followed the installed state. Delete segments first, under the
	// protection of the old snapshot.
	for _, s := range listSegments(entries) {
		if err := os.Remove(filepath.Join(j.dir, s.name)); err != nil {
			return fmt.Errorf("journal: drop segment %s: %w", s.name, err)
		}
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if s, ok := parseName(name, "snap-", ".json"); ok && s != seq {
			_ = os.Remove(filepath.Join(j.dir, name))
		}
	}
	j.seq = seq
	j.snapSeq = seq
	j.sinceSnap = 0
	j.dirty = false
	return nil
}
