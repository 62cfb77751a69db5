package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparcle/internal/obs"
)

type testOp struct {
	Op string `json:"op"`
	N  int    `json:"n"`
}

func openEmpty(t *testing.T, dir string, opt Options) *Journal {
	t.Helper()
	j, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap, recs, err := j.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if snap != nil || len(recs) != 0 {
		t.Fatalf("fresh journal recovered snap=%v recs=%d, want empty", snap != nil, len(recs))
	}
	return j
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	for i := 1; i <= 5; i++ {
		seq, err := j.Append("op", testOp{Op: "admit", N: i})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d: seq = %d", i, seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	snap, recs, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot")
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	for i, r := range recs {
		var op testOp
		if err := json.Unmarshal(r.Data, &op); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.Seq != uint64(i+1) || r.Type != "op" || op.N != i+1 {
			t.Fatalf("record %d = %+v / %+v", i, r, op)
		}
	}
	if j2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d", j2.LastSeq())
	}
	// Appends continue the sequence.
	if seq, err := j2.Append("op", testOp{N: 6}); err != nil || seq != 6 {
		t.Fatalf("continued Append = %d, %v", seq, err)
	}
}

func TestAppendBeforeRecover(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if _, err := j.Append("op", testOp{}); err == nil {
		t.Fatal("Append before Recover succeeded")
	}
}

func TestSnapshotBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	for i := 1; i <= 4; i++ {
		if _, err := j.Append("op", testOp{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(map[string]int{"upto": 4}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if j.SinceSnapshot() != 0 {
		t.Fatalf("SinceSnapshot = %d after snapshot", j.SinceSnapshot())
	}
	for i := 5; i <= 7; i++ {
		if _, err := j.Append("op", testOp{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if j.SinceSnapshot() != 3 {
		t.Fatalf("SinceSnapshot = %d, want 3", j.SinceSnapshot())
	}
	j.Close()

	j2, _ := Open(dir, Options{})
	defer j2.Close()
	snap, recs, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	var s map[string]int
	if err := json.Unmarshal(snap, &s); err != nil || s["upto"] != 4 {
		t.Fatalf("snapshot = %s, %v", snap, err)
	}
	if len(recs) != 3 || recs[0].Seq != 5 || recs[2].Seq != 7 {
		t.Fatalf("tail = %+v, want seqs 5..7", recs)
	}
}

func TestSnapshotPruneKeepsPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 3; i++ {
			if _, err := j.Append("op", testOp{N: gen*3 + i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.WriteSnapshot(map[string]int{"gen": gen}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	var snaps []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshot generations %v, want 2", len(snaps), snaps)
	}

	// Newest snapshot corrupt: recovery falls back to the previous
	// generation plus the full tail after it.
	newest := filepath.Join(dir, snaps[len(snaps)-1])
	data, _ := os.ReadFile(newest)
	data[len(data)-1] ^= 0xff
	os.WriteFile(newest, data, 0o644)
	j2, _ := Open(dir, Options{})
	defer j2.Close()
	snap, recs, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover with corrupt newest snapshot: %v", err)
	}
	var s map[string]int
	if err := json.Unmarshal(snap, &s); err != nil || s["gen"] != 1 {
		t.Fatalf("fell back to snapshot %s, want gen 1", snap)
	}
	if len(recs) != 3 || recs[0].Seq != 7 {
		t.Fatalf("tail after fallback = %+v, want seqs 7..9", recs)
	}
}

// TestRecoverFromSnapshotZero: the empty state is snapshot 0. With the
// only snapshot corrupt and the segments still starting at seq 1,
// recovery returns no snapshot and every record; once a second snapshot
// has pruned the first segment, unreadable snapshots are an error.
func TestRecoverFromSnapshotZero(t *testing.T) {
	// write journals gens generations of three records and a snapshot,
	// then two more records, and corrupts every snapshot.
	write := func(gens int) string {
		dir := t.TempDir()
		j := openEmpty(t, dir, Options{})
		for gen := 0; gen <= gens; gen++ {
			if gen > 0 {
				if err := j.WriteSnapshot(map[string]int{"gen": gen}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				if _, err := j.Append("op", testOp{N: i}); err != nil {
					t.Fatal(err)
				}
			}
		}
		j.Close()
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snap-") {
				path := filepath.Join(dir, e.Name())
				data, _ := os.ReadFile(path)
				data[len(data)-1] ^= 0xff
				os.WriteFile(path, data, 0o644)
			}
		}
		return dir
	}
	j, _ := Open(write(1), Options{})
	defer j.Close()
	snap, recs, err := j.Recover()
	if err != nil {
		t.Fatalf("Recover with the only snapshot corrupt: %v", err)
	}
	if snap != nil || len(recs) != 6 || recs[0].Seq != 1 {
		t.Fatalf("recovered snapshot %s and %d records, want none and seqs 1..6", snap, len(recs))
	}
	j2, _ := Open(write(2), Options{})
	defer j2.Close()
	if _, _, err := j2.Recover(); err == nil || !strings.Contains(err.Error(), "no readable snapshot") {
		t.Fatalf("Recover with every snapshot corrupt and seq 1 pruned: %v, want an error", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 8, 12} { // header-torn and payload-torn
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			j := openEmpty(t, dir, Options{})
			if _, err := j.Append("op", testOp{N: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append("op", testOp{N: 2}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			seg := onlySegment(t, dir)
			data, _ := os.ReadFile(seg)
			firstLen := int(binary.LittleEndian.Uint32(data[0:4])) + frameHeader
			if cut >= len(data)-firstLen {
				t.Skip("cut exceeds second frame")
			}
			os.WriteFile(seg, data[:firstLen+cut], 0o644)

			j2, _ := Open(dir, Options{})
			defer j2.Close()
			_, recs, err := j2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(recs) != 1 || recs[0].Seq != 1 {
				t.Fatalf("recovered %+v, want only seq 1", recs)
			}
			// The torn bytes are gone: a new append then a clean recovery
			// must see exactly records 1 and 2'.
			if seq, err := j2.Append("op", testOp{N: 99}); err != nil || seq != 2 {
				t.Fatalf("append after truncation = %d, %v", seq, err)
			}
		})
	}
}

func TestCorruptCRCAtTailDropped(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	j.Append("op", testOp{N: 1})
	j.Append("op", testOp{N: 2})
	j.Close()
	seg := onlySegment(t, dir)
	data, _ := os.ReadFile(seg)
	data[len(data)-1] ^= 0xff // flip a payload byte of the last frame
	os.WriteFile(seg, data, 0o644)

	j2, _ := Open(dir, Options{})
	defer j2.Close()
	_, recs, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered %+v, want only seq 1", recs)
	}
}

func TestDuplicateLastRecordDeduped(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	j.Append("op", testOp{N: 1})
	j.Append("op", testOp{N: 2})
	j.Close()
	seg := onlySegment(t, dir)
	data, _ := os.ReadFile(seg)
	firstLen := int(binary.LittleEndian.Uint32(data[0:4])) + frameHeader
	dup := append(data, data[firstLen:]...) // last frame written twice
	os.WriteFile(seg, dup, 0o644)

	j2, _ := Open(dir, Options{})
	defer j2.Close()
	_, recs, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("recovered %+v, want deduped seqs 1,2", recs)
	}
}

func TestMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	j.Append("op", testOp{N: 1})
	j.Append("op", testOp{N: 2})
	j.Append("op", testOp{N: 3})
	j.Close()
	seg := onlySegment(t, dir)
	data, _ := os.ReadFile(seg)
	firstLen := int(binary.LittleEndian.Uint32(data[0:4])) + frameHeader
	data[firstLen+frameHeader] ^= 0xff // corrupt the *middle* record's payload
	os.WriteFile(seg, data, 0o644)

	j2, _ := Open(dir, Options{})
	defer j2.Close()
	if _, _, err := j2.Recover(); err == nil {
		t.Fatal("Recover accepted mid-file corruption")
	}
}

func TestSequenceGapRejected(t *testing.T) {
	dir := t.TempDir()
	j := openEmpty(t, dir, Options{})
	j.Append("op", testOp{N: 1})
	j.Append("op", testOp{N: 2})
	j.Append("op", testOp{N: 3})
	j.Close()
	seg := onlySegment(t, dir)
	data, _ := os.ReadFile(seg)
	firstLen := int(binary.LittleEndian.Uint32(data[0:4])) + frameHeader
	secondLen := int(binary.LittleEndian.Uint32(data[firstLen:firstLen+4])) + frameHeader
	// Excise the middle frame entirely: frames 1 and 3 remain valid, so
	// this is not tail damage — it is a hole.
	holed := append(append([]byte{}, data[:firstLen]...), data[firstLen+secondLen:]...)
	os.WriteFile(seg, holed, 0o644)

	j2, _ := Open(dir, Options{})
	defer j2.Close()
	if _, _, err := j2.Recover(); err == nil {
		t.Fatal("Recover accepted a sequence gap")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []Policy{SyncAlways, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			j := openEmpty(t, dir, Options{Fsync: pol})
			for i := 1; i <= 3; i++ {
				if _, err := j.Append("op", testOp{N: i}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			j2, _ := Open(dir, Options{})
			defer j2.Close()
			_, recs, err := j2.Recover()
			if err != nil || len(recs) != 3 {
				t.Fatalf("recovered %d records, err %v", len(recs), err)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", 0, true},
		{"never", SyncNever, false},
		{"sometimes", 0, true},
	} {
		got, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestRecoverTwiceRejected(t *testing.T) {
	j := openEmpty(t, t.TempDir(), Options{})
	defer j.Close()
	if _, _, err := j.Recover(); err == nil {
		t.Fatal("second Recover succeeded")
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segmentPaths(t, dir)
	if len(segs) != 1 {
		t.Fatalf("found %d segments %v, want 1", len(segs), segs)
	}
	return segs[0]
}

func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestAppendSyncForcesFsync: AppendSync must put the record on stable
// storage immediately regardless of the configured fsync policy — the
// replication layer uses it for membership-change records, which must
// never be lost to a crash window.
func TestAppendSyncForcesFsync(t *testing.T) {
	t.Run(SyncNever.String(), func(t *testing.T) {
		j, err := Open(t.TempDir(), Options{Fsync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, _, err := j.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append("op", testOp{Op: "lazy"}); err != nil {
			t.Fatal(err)
		}
		seq, err := j.AppendSync("op", testOp{Op: "forced"})
		if err != nil {
			t.Fatal(err)
		}
		if seq != 2 {
			t.Fatalf("AppendSync seq = %d, want 2", seq)
		}
		// The forced fsync flushed everything buffered before it too.
		j.mu.Lock()
		dirty := j.dirty
		j.mu.Unlock()
		if dirty {
			t.Fatal("journal still dirty after AppendSync")
		}
	})
}

// TestAppendDeferredLeavesTheFsyncToSync: under SyncAlways a deferred
// append writes its record without flushing it, the next Sync flushes it,
// and a truncation flushes what it keeps (appends after the cut go to a
// fresh segment whose fsyncs would never cover it). Under SyncNever a
// deferred append is an ordinary one.
func TestAppendDeferredLeavesTheFsyncToSync(t *testing.T) {
	open := func(t *testing.T, policy Policy) (*Journal, *obs.Registry) {
		reg := obs.NewRegistry()
		j, err := Open(t.TempDir(), Options{Fsync: policy, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		if _, _, err := j.Recover(); err != nil {
			t.Fatal(err)
		}
		return j, reg
	}
	state := func(j *Journal, reg *obs.Registry) (bool, uint64) {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.dirty, reg.Histogram(metricFsync, fsyncBuckets).Count()
	}
	t.Run("always", func(t *testing.T) {
		j, reg := open(t, SyncAlways)
		for i := 1; i <= 2; i++ {
			if seq, err := j.AppendDeferred("op", testOp{Op: "deferred"}); err != nil || seq != uint64(i) {
				t.Fatalf("AppendDeferred = %d, %v; want %d", seq, err, i)
			}
		}
		if dirty, fsyncs := state(j, reg); !dirty || fsyncs != 0 {
			t.Fatalf("after deferred appends: dirty %v, %d fsyncs; want dirty and none", dirty, fsyncs)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		if dirty, fsyncs := state(j, reg); dirty || fsyncs != 1 {
			t.Fatalf("after Sync: dirty %v, %d fsyncs; want clean after one", dirty, fsyncs)
		}
		if _, err := j.AppendDeferred("op", testOp{Op: "cut"}); err != nil {
			t.Fatal(err)
		}
		if _, err := j.AppendDeferred("op", testOp{Op: "kept"}); err != nil {
			t.Fatal(err)
		}
		if err := j.TruncateTo(3); err != nil {
			t.Fatal(err)
		}
		if dirty, fsyncs := state(j, reg); dirty || fsyncs != 2 {
			t.Fatalf("after TruncateTo: dirty %v, %d fsyncs; want the kept prefix flushed", dirty, fsyncs)
		}
	})
	t.Run(SyncNever.String(), func(t *testing.T) {
		j, reg := open(t, SyncNever)
		if _, err := j.AppendDeferred("op", testOp{Op: "x"}); err != nil {
			t.Fatal(err)
		}
		if dirty, fsyncs := state(j, reg); dirty || fsyncs != 0 {
			t.Fatalf("dirty %v, %d fsyncs; want what Append leaves", dirty, fsyncs)
		}
	})
}

// TestEncodeFrameMatchesMarshal: encodeFrame writes a record's envelope
// around its already-marshaled payload instead of marshaling the Record
// again, so its frames must be byte-identical to framing
// json.Marshal(Record): HTML characters, U+2028/U+2029, invalid UTF-8
// and nested raw messages in the payload, and type tags that need
// escaping.
func TestEncodeFrameMatchesMarshal(t *testing.T) {
	type inner struct {
		Raw  json.RawMessage `json:"raw"`
		List []any           `json:"list"`
	}
	datas := []any{
		nil,
		"<script>&amp;</script>",
		"line\u2028sep\u2029para",
		"bad utf-8: \xff\xfe",
		map[string]any{"a<b": []any{1.5, "x>y", map[string]any{"&": nil}}, "z": true},
		inner{Raw: json.RawMessage(` { "html" : "<&>" , "ls" : "\u2028" } `), List: []any{"q\"uote", `back\slash`, 0}},
		json.RawMessage(`[1, 2, {"k": "<v>"}]`),
		testOp{Op: "submit", N: 7},
	}
	types := []string{"batch", "snapshot", "replica-conf", "", "a<b>&c", `q"uote\`, "tab\there", "ünï", "\u2028", "bad\xff"}
	for di, d := range datas {
		payload, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range types {
			for _, seq := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
				got, err := encodeFrame(seq, typ, payload)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(Record{Seq: seq, Type: typ, Data: payload})
				if err != nil {
					t.Fatal(err)
				}
				if string(got[frameHeader:]) != string(want) {
					t.Fatalf("data %d type %q seq %d:\n got %s\nwant %s", di, typ, seq, got[frameHeader:], want)
				}
				rec, ok := decodeFrame(got)
				if !ok || rec.Seq != seq {
					t.Fatalf("data %d type %q seq %d: frame does not decode (ok=%v seq=%d)", di, typ, seq, ok, rec.Seq)
				}
			}
		}
	}
}
