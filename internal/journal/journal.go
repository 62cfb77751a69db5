// Package journal is a write-ahead operation log for the SPARCLE control
// plane: every mutating scheduler operation is appended as one
// length-prefixed, CRC32C-checksummed JSON record before the operation is
// acknowledged, and periodic snapshots of the full scheduler state bound
// recovery to snapshot + tail replay instead of full-history replay.
//
// On-disk layout (one directory per journal):
//
//	wal-<seq16x>.log   segments of framed records; <seq16x> is the first
//	                   sequence number the segment may contain
//	snap-<seq16x>.json one framed snapshot covering every record with
//	                   sequence number <= seq16x
//
// Each frame is
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// so a crash can only ever leave a torn or half-written frame at the
// physical tail of the newest segment. Recover tolerates exactly that
// (plus a duplicated final record from a retried append) and refuses
// anything worse: a corrupt frame that is not at the tail is data loss
// the journal cannot paper over, and recovery fails loudly instead of
// silently dropping acknowledged operations.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sparcle/internal/obs"
)

// Policy selects when appended records are forced to stable storage.
type Policy int

const (
	// SyncAlways fsyncs after every append: an acknowledged operation is
	// durable even across power loss. The safe default.
	SyncAlways Policy = iota
	// SyncNever leaves flushing to the operating system: fastest, and only
	// as durable as the page cache. For tests and throwaway deployments.
	SyncNever
)

// ParsePolicy maps the -journal-fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always or never)", s)
	}
}

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a Journal.
type Options struct {
	// Fsync selects the durability/latency trade-off (default SyncAlways).
	Fsync Policy
	// Metrics, when non-nil, receives the journal counters and the fsync
	// latency histogram.
	Metrics *obs.Registry
}

// Record is one journaled operation.
type Record struct {
	// Seq is the strictly increasing sequence number assigned at append.
	Seq uint64 `json:"seq"`
	// Type tags the operation kind (opaque to the journal).
	Type string `json:"type"`
	// Data is the operation payload.
	Data json.RawMessage `json:"data"`
}

// Metric names maintained by the journal.
const (
	metricAppends  = "sparcle_journal_appends_total"
	metricFsync    = "sparcle_journal_fsync_seconds"
	metricReplayed = "sparcle_journal_replayed_records"
)

// fsyncBuckets tile the sub-millisecond (page cache) through tens-of-ms
// (spinning disk) fsync regimes.
var fsyncBuckets = []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1}

// castagnoli is the CRC32C polynomial table shared by all journals.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader = 8 // uint32 length + uint32 crc
	// maxFrame bounds a single record; longer frames are rejected at both
	// append and recovery (a corrupt length field would otherwise ask the
	// reader to allocate gigabytes).
	maxFrame = 1 << 26
)

// Journal is an append-only operation log with snapshot support. All
// methods are safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	dir string
	opt Options

	f       *os.File // active segment (nil until recovered)
	seq     uint64   // last sequence number appended or recovered
	snapSeq uint64   // sequence number covered by the newest snapshot
	// sinceSnap counts appends since the newest snapshot, so callers can
	// drive a record-count snapshot cadence.
	sinceSnap int
	recovered bool
	closed    bool

	dirty bool // unsynced bytes of a deferred append
}

// Open prepares a journal in dir, creating the directory if needed. No
// state is read until Recover is called; Append before Recover is an
// error, which forces every caller through the recovery path and makes
// "forgot to replay the log" impossible.
func Open(dir string, opt Options) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opt: opt}
	if reg := j.opt.Metrics; reg != nil {
		reg.SetHelp(metricAppends, "Total records appended to the write-ahead journal.")
		reg.SetHelp(metricFsync, "Latency of journal fsync calls, seconds.")
		reg.SetHelp(metricReplayed, "Records replayed from the journal tail by the last recovery.")
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// FsyncPolicy returns the configured fsync policy. Options are immutable
// after Open, so no lock is taken.
func (j *Journal) FsyncPolicy() Policy { return j.opt.Fsync }

// LastSeq returns the sequence number of the most recent record (appended
// or recovered); 0 means the journal is empty.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// SinceSnapshot returns the number of records appended after the newest
// snapshot.
func (j *Journal) SinceSnapshot() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceSnap
}

// Append marshals data, frames it and writes it to the active segment,
// returning the record's sequence number. Under SyncAlways the record is
// on stable storage when Append returns; callers must not acknowledge the
// operation to clients before Append does.
func (j *Journal) Append(typ string, data any) (uint64, error) {
	return j.AppendSpan(nil, typ, data)
}

// AppendSync is Append with an unconditional flush: the record is on
// stable storage when it returns regardless of the configured fsync
// policy. Replication uses it for membership-change records — a node
// that forgets a configuration it acknowledged could count votes under
// a stale quorum after a crash, so these records are flushed even
// under SyncNever.
func (j *Journal) AppendSync(typ string, data any) (uint64, error) {
	return j.appendSpan(nil, typ, data, flushForce)
}

// AppendDeferred is Append without the per-record flush of SyncAlways:
// the record is written to the active segment but is durable only once a
// later Sync returns (or anything else fsyncs the segment — a synced
// append, a snapshot rotation, a truncation). Under SyncNever it is
// Append. A replication leader uses it to fsync beside the
// follower round instead of before it.
func (j *Journal) AppendDeferred(typ string, data any) (uint64, error) {
	return j.appendSpan(nil, typ, data, flushDefer)
}

// AppendSpan is Append with latency attribution: the whole append is
// recorded as a "journal.append" child span of parent, and under
// SyncAlways the stable-storage flush gets its own nested
// "journal.fsync" span — in an admission trace, that child is where a
// slow disk shows up. A nil parent costs nothing.
func (j *Journal) AppendSpan(parent *obs.Span, typ string, data any) (uint64, error) {
	return j.appendSpan(parent, typ, data, flushPolicy)
}

// flushMode says when an append forces its record to stable storage.
type flushMode int

const (
	flushPolicy flushMode = iota // as the journal's Policy says
	flushForce                   // always, whatever the policy
	flushDefer                   // never here; the caller Syncs later
)

func (j *Journal) appendSpan(parent *obs.Span, typ string, data any, mode flushMode) (uint64, error) {
	asp := parent.Child("journal.append")
	defer asp.End()
	asp.SetAttr("type", typ)
	payload, err := json.Marshal(data)
	if err != nil {
		return 0, fmt.Errorf("journal: marshal %s record: %w", typ, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("journal: closed")
	}
	if !j.recovered {
		return 0, fmt.Errorf("journal: Append before Recover")
	}
	seq := j.seq + 1
	frame, err := encodeFrame(seq, typ, payload)
	if err != nil {
		return 0, err
	}
	asp.SetInt("bytes", int64(len(frame)))
	if j.f == nil {
		// A fresh segment starts at the next sequence number (not at the
		// snapshot boundary): recovery may have left tail records in an
		// older segment, and naming the new file past them keeps every
		// segment's range disjoint for the skip/prune logic.
		if err := j.openSegment(seq); err != nil {
			return 0, err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: append seq %d: %w", seq, err)
	}
	switch {
	case mode == flushForce || (j.opt.Fsync == SyncAlways && mode == flushPolicy):
		fsp := asp.Child("journal.fsync")
		err := j.fsyncLocked()
		fsp.End()
		if err != nil {
			return 0, err
		}
	case j.opt.Fsync != SyncNever:
		// A deferred SyncAlways append: unsynced bytes that the next
		// fsync covers.
		j.dirty = true
	}
	j.seq = seq
	j.sinceSnap++
	if reg := j.opt.Metrics; reg != nil {
		reg.Counter(metricAppends).Inc()
	}
	return seq, nil
}

// Sync forces buffered records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.fsyncLocked()
}

func (j *Journal) fsyncLocked() error {
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = false
	if reg := j.opt.Metrics; reg != nil {
		reg.Histogram(metricFsync, fsyncBuckets).Observe(time.Since(start).Seconds())
	}
	return nil
}

// WriteSnapshot atomically persists state as covering every record up to
// the current sequence number, rotates to a fresh segment, and prunes
// files older than the previous snapshot (the previous generation is kept
// so a torn newest snapshot never strands the journal).
func (j *Journal) WriteSnapshot(state any) error {
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if !j.recovered {
		return fmt.Errorf("journal: WriteSnapshot before Recover")
	}
	seq := j.seq
	frame, err := encodeFrame(seq, "snapshot", payload)
	if err != nil {
		return err
	}
	prevSnap := j.snapSeq

	final := filepath.Join(j.dir, snapName(seq))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, frame); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}

	// Rotate: records after the snapshot go to a fresh segment so pruning
	// is whole-file.
	if j.f != nil {
		if err := j.fsyncLocked(); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: close segment: %w", err)
		}
		j.f = nil
	}
	j.snapSeq = seq
	j.sinceSnap = 0
	j.pruneLocked(prevSnap)
	return nil
}

// pruneLocked removes snapshots and segments made obsolete by the
// snapshot at keepSnap: anything strictly older than the previous
// snapshot generation.
func (j *Journal) pruneLocked(prevSnap uint64) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseName(name, "snap-", ".json"); ok && seq < prevSnap {
			_ = os.Remove(filepath.Join(j.dir, name))
		}
	}
	// A segment holds records in [start, nextStart); it is dead once every
	// record it can hold is covered by the previous snapshot generation,
	// i.e. its successor segment starts at or before prevSnap+1.
	segs := listSegments(entries)
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].start <= prevSnap+1 {
			_ = os.Remove(filepath.Join(j.dir, s.name))
		}
	}
}

// Close flushes and releases the journal. Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	var err error
	if j.f != nil {
		err = j.fsyncLocked()
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	j.mu.Unlock()
	return err
}

func (j *Journal) openSegment(start uint64) error {
	name := filepath.Join(j.dir, segName(start))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	return syncDir(j.dir)
}

func segName(start uint64) string { return fmt.Sprintf("wal-%016x.log", start) }
func snapName(seq uint64) string  { return fmt.Sprintf("snap-%016x.json", seq) }

func parseName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// encodeFrame renders the record (seq, typ, data) as a length-prefixed,
// checksummed frame. data must be json.Marshal output: it is already
// valid, compact and HTML-escaped, so it is written as is, and the frame
// is byte-identical to one framing json.Marshal(Record{seq, typ, data}).
func encodeFrame(seq uint64, typ string, data []byte) ([]byte, error) {
	quoted, err := json.Marshal(typ)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record type: %w", err)
	}
	frame := make([]byte, frameHeader, frameHeader+len(`{"seq":,"type":,"data":}`)+20+len(quoted)+len(data))
	frame = append(frame, `{"seq":`...)
	frame = strconv.AppendUint(frame, seq, 10)
	frame = append(append(frame, `,"type":`...), quoted...)
	frame = append(append(frame, `,"data":`...), data...)
	frame = append(frame, '}')
	payload := frame[frameHeader:]
	if len(payload) > maxFrame {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame, nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("journal: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: fsync %s: %w", path, err)
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}
