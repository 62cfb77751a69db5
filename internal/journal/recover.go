package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Recover loads the newest readable snapshot and every record after it,
// repairs the physical tail (truncating a torn final frame, dropping a
// duplicated final record left by a retried append), and arms the journal
// for appends. It returns the snapshot payload (nil if none) and the tail
// records in sequence order.
//
// Corruption anywhere other than the newest segment's tail is an error:
// those frames were acknowledged and then survived at least one later
// append, so losing them silently would break the journal's contract.
func (j *Journal) Recover() ([]byte, []Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, nil, fmt.Errorf("journal: closed")
	}
	if j.recovered {
		return nil, nil, fmt.Errorf("journal: Recover called twice")
	}

	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: read %s: %w", j.dir, err)
	}

	snap, snapSeq, err := j.loadSnapshot(entries)
	if err != nil {
		return nil, nil, err
	}

	segs := listSegments(entries)
	var recs []Record
	for i, s := range segs {
		// Segments wholly covered by the snapshot are skipped; a segment
		// that starts at or before the snapshot may still hold the first
		// post-snapshot records if rotation raced a crash.
		if i+1 < len(segs) && segs[i+1].start <= snapSeq+1 {
			continue
		}
		tail := i == len(segs)-1
		segRecs, err := readSegment(filepath.Join(j.dir, s.name), tail)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range segRecs {
			if r.Seq <= snapSeq {
				continue
			}
			recs = append(recs, r)
		}
	}

	// Sequence hygiene: drop exact duplicates from retried appends (the
	// same record written twice in a row), reject gaps or regressions.
	clean := recs[:0]
	last := snapSeq
	for _, r := range recs {
		switch {
		case r.Seq == last && len(clean) > 0 && sameRecord(clean[len(clean)-1], r):
			continue // retried append: identical record, already applied
		case r.Seq == last+1:
			clean = append(clean, r)
			last = r.Seq
		default:
			return nil, nil, fmt.Errorf("journal: sequence gap: have %d, next record is %d", last, r.Seq)
		}
	}
	recs = clean

	j.seq = last
	j.snapSeq = snapSeq
	j.sinceSnap = len(recs)
	j.recovered = true
	if reg := j.opt.Metrics; reg != nil {
		reg.Gauge(metricReplayed).Set(float64(len(recs)))
	}
	return snap, recs, nil
}

func sameRecord(a, b Record) bool {
	return a.Seq == b.Seq && a.Type == b.Type && string(a.Data) == string(b.Data)
}

// loadSnapshot picks the newest readable snapshot. A torn or corrupt
// newest snapshot falls back to the previous generation (which pruning
// keeps around for exactly this case); an older corrupt snapshot is an
// error only if no newer one loads. The empty state is snapshot 0: when
// no snapshot loads but the segments still start at seq 1, recovery
// replays every record from nothing.
func (j *Journal) loadSnapshot(entries []os.DirEntry) ([]byte, uint64, error) {
	type cand struct {
		name string
		seq  uint64
	}
	var cands []cand
	for _, e := range entries {
		if seq, ok := parseName(e.Name(), "snap-", ".json"); ok {
			cands = append(cands, cand{e.Name(), seq})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].seq > cands[b].seq })
	var firstErr error
	for _, c := range cands {
		data, err := os.ReadFile(filepath.Join(j.dir, c.name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rec, ok := decodeFrame(data)
		if !ok || rec.Seq != c.seq {
			if firstErr == nil {
				firstErr = fmt.Errorf("journal: snapshot %s is corrupt", c.name)
			}
			continue
		}
		return rec.Data, c.seq, nil
	}
	if segs := listSegments(entries); firstErr != nil && (len(segs) == 0 || segs[0].start != 1) {
		return nil, 0, fmt.Errorf("journal: no readable snapshot: %w", firstErr)
	}
	return nil, 0, nil
}

type segment struct {
	name  string
	start uint64
}

func listSegments(entries []os.DirEntry) []segment {
	var segs []segment
	for _, e := range entries {
		if start, ok := parseName(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, segment{e.Name(), start})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].start < segs[b].start })
	return segs
}

// readSegment decodes every frame in one segment file. When tail is true
// a torn or corrupt final frame is truncated off the file (a crash can
// only damage the physical end); otherwise any damage is an error.
func readSegment(path string, tail bool) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read segment: %w", err)
	}
	var recs []Record
	off := 0
	for off < len(data) {
		rec, n, ok := nextFrame(data[off:])
		if !ok {
			if !tail {
				return nil, fmt.Errorf("journal: corrupt frame at %s+%d (not at journal tail)", filepath.Base(path), off)
			}
			// Everything beyond off is a torn final frame or trailing
			// garbage from the crash; a *valid* frame after this point
			// would mean mid-file corruption, which we must not truncate.
			if rest, _ := scanValidFrame(data[off:]); rest {
				return nil, fmt.Errorf("journal: corrupt frame at %s+%d followed by valid frames", filepath.Base(path), off)
			}
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
			break
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, nil
}

// decodeFrame decodes a buffer expected to hold exactly one frame.
func decodeFrame(data []byte) (Record, bool) {
	rec, n, ok := nextFrame(data)
	if !ok || n != len(data) {
		return Record{}, false
	}
	return rec, true
}

// nextFrame decodes the frame at the start of data, returning the record
// and the number of bytes consumed.
func nextFrame(data []byte) (Record, int, bool) {
	if len(data) < frameHeader {
		return Record{}, 0, false
	}
	length := int(binary.LittleEndian.Uint32(data[0:4]))
	if length > maxFrame || len(data) < frameHeader+length {
		return Record{}, 0, false
	}
	payload := data[frameHeader : frameHeader+length]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return Record{}, 0, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, false
	}
	return rec, frameHeader + length, true
}

// scanValidFrame reports whether any byte offset within data starts a
// valid frame — used to distinguish a torn tail (safe to truncate) from
// mid-file corruption followed by good records (data loss, must error).
func scanValidFrame(data []byte) (bool, int) {
	for off := 1; off+frameHeader <= len(data); off++ {
		if _, _, ok := nextFrame(data[off:]); ok {
			return true, off
		}
	}
	return false, 0
}
