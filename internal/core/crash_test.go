package core

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sparcle/internal/journal"
	"sparcle/internal/network"
	"sparcle/internal/obs"
)

// journaledRun drives a churn script against a scheduler whose commit
// hook appends to a real on-disk journal, capturing the marshaled
// scheduler state after every journaled operation. states[k] is the
// state with exactly k records applied (states[0] is the fresh
// scheduler), so a crash that loses the tail after record k must recover
// to precisely states[k] — pre-crash or pre-operation, never a third
// state.
func journaledRun(t *testing.T, net *network.Network, dir string, script []scriptOp, snapshotAt int) []string {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	s := New(net)
	s.SetCommitHook(func(rec *Record) error {
		_, err := j.Append("op", rec)
		return err
	})
	states := []string{stateJSON(t, s)}
	for _, op := range script {
		before := j.LastSeq()
		applyOp(t, s, op)
		switch j.LastSeq() - before {
		case 0:
			// Not-found remove/repair: no record, no state change.
		case 1:
			states = append(states, stateJSON(t, s))
		default:
			t.Fatalf("op %q journaled %d records", op.kind, j.LastSeq()-before)
		}
		if snapshotAt > 0 && len(states)-1 == snapshotAt {
			snap, err := s.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.WriteSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// recoverState opens the journal directory, recovers, rebuilds a
// scheduler, and returns its marshaled state.
func recoverState(t *testing.T, net *network.Network, dir string) (string, error) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		return "", err
	}
	defer j.Close()
	snapBytes, recs, err := j.Recover()
	if err != nil {
		return "", err
	}
	var snap *Snapshot
	if snapBytes != nil {
		snap = &Snapshot{}
		if err := json.Unmarshal(snapBytes, snap); err != nil {
			return "", err
		}
	}
	coreRecs := make([]*Record, len(recs))
	for i := range recs {
		coreRecs[i] = &Record{}
		if err := json.Unmarshal(recs[i].Data, coreRecs[i]); err != nil {
			return "", err
		}
	}
	s, err := Rebuild(net, snap, coreRecs)
	if err != nil {
		return "", err
	}
	return stateJSON(t, s), nil
}

// frameBounds parses a WAL segment into the cumulative end offset of
// each frame.
func frameBounds(t *testing.T, data []byte) []int {
	t.Helper()
	var bounds []int
	off := 0
	for off < len(data) {
		if off+8 > len(data) {
			t.Fatalf("segment ends mid-header at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + n
		if off > len(data) {
			t.Fatalf("segment ends mid-frame at %d", off)
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// cloneJournalWith copies the journal directory, replacing the named
// segment's bytes.
func cloneJournalWith(t *testing.T, srcDir, segName string, seg []byte) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == segName {
			data = seg
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	// Glob sorts lexically; fixed-width hex names sort by start sequence.
	return filepath.Base(names[len(names)-1])
}

// TestCrashAtEveryBoundary kills the append path at every record
// boundary and at several mid-record offsets (torn header, torn payload)
// and asserts recovery lands exactly on the pre-crash state for the
// records that survived — equivalently, the pre-operation state of the
// first lost record.
func TestCrashAtEveryBoundary(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(77))
	script := churnScript(t, rng, net, 14)

	dir := t.TempDir()
	states := journaledRun(t, net, dir, script, 0)

	segName := tailSegment(t, dir)
	seg, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, seg)
	if len(bounds) != len(states)-1 {
		t.Fatalf("%d frames on disk but %d journaled operations", len(bounds), len(states)-1)
	}

	// complete(cut) = how many frames survive a crash after `cut` bytes.
	complete := func(cut int) int {
		n := 0
		for _, b := range bounds {
			if b <= cut {
				n++
			}
		}
		return n
	}
	var cuts []int
	prev := 0
	for _, b := range bounds {
		frameLen := b - prev
		cuts = append(cuts, prev+1, prev+5, prev+frameLen/2, b)
		prev = b
	}
	cuts = append(cuts, 0)

	for _, cut := range cuts {
		if cut > len(seg) {
			continue
		}
		dst := cloneJournalWith(t, dir, segName, seg[:cut])
		got, err := recoverState(t, net, dst)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if want := states[complete(cut)]; got != want {
			t.Fatalf("cut at %d (%d complete frames): recovered state is neither pre-crash nor pre-operation", cut, complete(cut))
		}
	}
}

// TestCrashTailCorruptionAndDuplication covers the remaining crash
// shapes: a corrupt CRC on the final record (dropped → pre-operation
// state), a duplicated final record from a retried append (deduplicated
// → pre-crash state), and corruption in the middle of the file (refused
// loudly — silent truncation there would erase acknowledged operations).
func TestCrashTailCorruptionAndDuplication(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(177))
	script := churnScript(t, rng, net, 10)

	dir := t.TempDir()
	states := journaledRun(t, net, dir, script, 0)
	segName := tailSegment(t, dir)
	seg, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, seg)
	n := len(bounds)

	// Corrupt one payload byte of the final frame.
	corrupt := append([]byte(nil), seg...)
	corrupt[bounds[n-2]+8+3] ^= 0xff
	got, err := recoverState(t, net, cloneJournalWith(t, dir, segName, corrupt))
	if err != nil {
		t.Fatalf("corrupt tail CRC: recovery failed: %v", err)
	}
	if got != states[n-1] {
		t.Fatal("corrupt tail CRC: recovered state is not the pre-operation state")
	}

	// Duplicate the final frame, as a crashed-then-retried append would.
	dup := append(append([]byte(nil), seg...), seg[bounds[n-2]:]...)
	got, err = recoverState(t, net, cloneJournalWith(t, dir, segName, dup))
	if err != nil {
		t.Fatalf("duplicated final record: recovery failed: %v", err)
	}
	if got != states[n] {
		t.Fatal("duplicated final record: dedup did not restore the pre-crash state")
	}

	// Corrupt a middle frame: valid frames follow, so this is not tail
	// damage and recovery must refuse.
	mid := append([]byte(nil), seg...)
	midFrame := n / 2
	mid[bounds[midFrame-1]+8+1] ^= 0xff
	if _, err := recoverState(t, net, cloneJournalWith(t, dir, segName, mid)); err == nil {
		t.Fatal("mid-file corruption recovered silently; acknowledged operations were dropped")
	}
}

// TestCrashGroupCommit crashes inside and at the boundaries of
// group-commit records. A group of K admissions is one journal frame, so
// recovery must be all-or-none: a cut anywhere inside the frame (torn
// header, torn payload) recovers the state with zero apps of that group
// admitted, and a cut at the frame boundary recovers all K — never a
// prefix of the group.
func TestCrashGroupCommit(t *testing.T) {
	net := batchMeshNet(t)
	apps := batchApps(t, rand.New(rand.NewSource(377)), net, 12, true)

	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	s := New(net)
	s.SetCommitHook(func(rec *Record) error {
		_, err := j.Append("op", rec)
		return err
	})
	states := []string{stateJSON(t, s)}
	var sizes []int

	// Gate the first leader inside its commit so every other submitter
	// queues behind it; releasing the gate then forms real multi-app
	// groups (MaxSize caps them at 8: group shapes 1, 8, 3).
	gate, leading := make(chan struct{}), make(chan struct{})
	first := true // commit functions run serially; no extra locking needed
	gc := NewGroupCommitter(func(batch []App, lead *obs.Span) ([]BatchResult, error) {
		if first {
			first = false
			close(leading)
			<-gate
		}
		mu.Lock()
		defer mu.Unlock()
		res, err := s.SubmitBatch(batch)
		states = append(states, stateJSON(t, s))
		sizes = append(sizes, len(batch))
		return res, err
	}, GroupOptions{MaxSize: 8})

	var wg sync.WaitGroup
	errc := make(chan error, len(apps))
	for i, app := range apps {
		wg.Add(1)
		go func(a App) {
			defer wg.Done()
			_, err := gc.Submit(a, nil)
			errc <- err
		}(app)
		if i == 0 {
			// The first leader must have drained its group of one before
			// anyone else enqueues.
			<-leading
		}
	}
	for {
		gc.mu.Lock()
		n := len(gc.queue)
		gc.mu.Unlock()
		if n == len(apps)-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("grouped submit: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	total, multi := 0, 0
	for _, k := range sizes {
		total += k
		if k > 1 {
			multi++
		}
	}
	if total != len(apps) || multi == 0 {
		t.Fatalf("group sizes %v: want %d apps with at least one multi-app group", sizes, len(apps))
	}

	segName := tailSegment(t, dir)
	seg, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, seg)
	if len(bounds) != len(sizes) {
		t.Fatalf("%d frames on disk for %d group commits: a group must be exactly one record", len(bounds), len(sizes))
	}

	complete := func(cut int) int {
		n := 0
		for _, b := range bounds {
			if b <= cut {
				n++
			}
		}
		return n
	}
	var cuts []int
	prev := 0
	for _, b := range bounds {
		frameLen := b - prev
		cuts = append(cuts, prev+1, prev+5, prev+frameLen/2, b)
		prev = b
	}
	cuts = append(cuts, 0)
	for _, cut := range cuts {
		if cut > len(seg) {
			continue
		}
		dst := cloneJournalWith(t, dir, segName, seg[:cut])
		got, err := recoverState(t, net, dst)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if want := states[complete(cut)]; got != want {
			t.Fatalf("cut at %d (%d complete groups of %v): recovery is not all-or-none",
				cut, complete(cut), sizes)
		}
	}
}

// TestCrashAfterSnapshot crashes in the segment that follows a snapshot:
// recovery is snapshot + bounded tail replay and must still land on
// exactly the pre-crash or pre-operation state.
func TestCrashAfterSnapshot(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(277))
	script := churnScript(t, rng, net, 12)

	dir := t.TempDir()
	snapshotAt := 5
	states := journaledRun(t, net, dir, script, snapshotAt)
	if len(states) <= snapshotAt+2 {
		t.Fatalf("script journaled only %d records; need tail records past the snapshot", len(states)-1)
	}

	segName := tailSegment(t, dir)
	seg, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, seg)
	if want := len(states) - 1 - snapshotAt; len(bounds) != want {
		t.Fatalf("tail segment has %d frames, want %d", len(bounds), want)
	}

	complete := func(cut int) int {
		n := 0
		for _, b := range bounds {
			if b <= cut {
				n++
			}
		}
		return n
	}
	var cuts []int
	prev := 0
	for _, b := range bounds {
		cuts = append(cuts, prev+3, b)
		prev = b
	}
	cuts = append(cuts, 0)
	for _, cut := range cuts {
		if cut > len(seg) {
			continue
		}
		dst := cloneJournalWith(t, dir, segName, seg[:cut])
		got, err := recoverState(t, net, dst)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if want := states[snapshotAt+complete(cut)]; got != want {
			t.Fatalf("cut at %d: snapshot+replay recovered to neither pre-crash nor pre-operation state", cut)
		}
	}
}
