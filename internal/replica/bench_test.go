package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparcle/internal/journal"
)

// BenchmarkPropose is the replica layer's twin of the durable_repl3
// write path: three in-process nodes over real SyncAlways journals, one
// proposal per op through the ready leader, each acknowledged by quorum.
// exports/op counts full state-machine exports on all three nodes —
// snapshot cuts plus any export a cut then refused.
func BenchmarkPropose(b *testing.B) {
	c := newCluster(b, 256) // the server's default snapshot cadence
	lead := c.waitLeader()
	exports := func() (sum int64) {
		for _, id := range c.ids {
			sum += c.sm(id).exports.Load()
		}
		return sum
	}
	sm, before := c.sm(lead.ID()), exports()
	data := []byte(`"op"`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sm.applyAndPropose(data, func() error { return lead.Propose(data) }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(exports()-before)/float64(b.N), "exports/op")
}

// BenchmarkAppendRPC is the transport layer's twin: one AppendEntries
// per op, carrying one entry of durable_repl3's journal record size
// (~680 bytes), to a follower served by Handler behind a loopback HTTP
// server. The follower's journal never fsyncs, so the op is the wire
// round trip plus the follower's append. It reaches the follower
// through the Transport interface only.
func BenchmarkAppendRPC(b *testing.B) {
	ts := httptest.NewServer(loneFollower(b).Handler())
	defer ts.Close()
	var tr Transport = NewHTTPTransport(ts.URL, nil)
	data := json.RawMessage(`{"pad":"` + strings.Repeat("x", 670) + `"}`)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i) + 1
		resp, err := tr.AppendEntries(ctx, appendAt(seq, data))
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Success || resp.LastSeq != seq {
			b.Fatalf("append %d refused: %+v", seq, resp)
		}
	}
}

// BenchmarkFollowerAppend is a follower's half of durable_repl3's
// closed-loop stream: one single-entry AppendEntries per op, handled in
// process, on top of an in-memory tail of the named length that no
// snapshot cuts (the leader's commit stays at the tail's end, as behind
// a slow quorum). Every 64 ops, off the clock, a new term overwrites the
// entries past that end, so the tail stays within 64 of its length. The
// op must cost the same at every tail length.
func BenchmarkFollowerAppend(b *testing.B) {
	for _, tail := range []uint64{256, 4096} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			n := loneFollower(b)
			data := json.RawMessage(`{"pad":"` + strings.Repeat("x", 670) + `"}`)
			fill := &AppendRequest{Term: 1, LeaderID: "ldr", LeaderCommit: tail}
			for seq := uint64(1); seq <= tail; seq++ {
				fill.Entries = append(fill.Entries, Entry{Seq: seq, Term: 1, Data: data})
			}
			term, last, lastTerm := uint64(1), tail, uint64(1)
			appendOne := func() {
				resp, err := n.HandleAppendEntries(&AppendRequest{Term: term, LeaderID: "ldr",
					PrevSeq: last, PrevTerm: lastTerm, LeaderCommit: tail,
					Entries: []Entry{{Seq: last + 1, Term: term, Data: data}}})
				if err != nil {
					b.Fatal(err)
				}
				if !resp.Success || resp.LastSeq != last+1 {
					b.Fatalf("append %d refused: %+v", last+1, resp)
				}
				last, lastTerm = last+1, term
			}
			if _, err := n.HandleAppendEntries(fill); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%64 == 0 {
					b.StopTimer()
					term, last, lastTerm = term+1, tail, 1
					appendOne() // truncates the previous term's entries
					b.StartTimer()
				}
				appendOne()
			}
		})
	}
}

// appendAt builds the append of entry seq (term 1) carrying data to a
// follower that holds seq-1.
func appendAt(seq uint64, data json.RawMessage) *AppendRequest {
	req := &AppendRequest{Term: 1, LeaderID: "ldr", PrevSeq: seq - 1, LeaderCommit: seq,
		Entries: []Entry{{Seq: seq, Term: 1, Data: data}}}
	if seq > 1 {
		req.PrevTerm = 1
	}
	return req
}

// loneFollower starts a node with no peers, a SyncNever journal, no
// periodic snapshots and timeouts long enough that it never campaigns:
// it only ever answers what it is sent.
func loneFollower(tb testing.TB) *Node {
	tb.Helper()
	j, err := journal.Open(tb.TempDir(), journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.Close() })
	n, err := New(Config{
		ID:              "follower",
		Peers:           map[string]Transport{},
		Journal:         j,
		SM:              permissiveSM{},
		SnapshotEvery:   -1,
		Heartbeat:       time.Hour,
		ElectionTimeout: 24 * time.Hour,
		Seed:            1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := n.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { stopWithin(tb, "follower", n.Stop) }) // runs before the journal's close
	return n
}
