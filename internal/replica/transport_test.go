package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// servePeer serves whichever node cur holds behind one loopback URL, so
// a test can restart the peer without moving its address.
func servePeer(t *testing.T, cur *atomic.Pointer[Node]) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

var op = json.RawMessage(`"op"`)

func mustAppend(t *testing.T, tr Transport, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := tr.AppendEntries(ctx, appendAt(seq, op))
	if err != nil {
		t.Fatalf("append %d: %v", seq, err)
	}
	if !resp.Success || resp.LastSeq != seq {
		t.Fatalf("append %d refused: %+v", seq, resp)
	}
}

// holdAppends parks the node's appends, as a follower's snapshot cut
// does, until the returned release runs.
func holdAppends(n *Node) (release func()) {
	hold := make(chan struct{})
	n.mu.Lock()
	n.cutHold = hold
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		close(hold)
		n.cutHold = nil
		n.mu.Unlock()
	}
}

func (t *HTTPTransport) current() *stream {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamRedialsAfterPeerRestart: a restart closes the peer's
// inbound streams, which fails the calls pending on them; the next call
// dials the restarted peer.
func TestStreamRedialsAfterPeerRestart(t *testing.T) {
	var cur atomic.Pointer[Node]
	old := loneFollower(t)
	cur.Store(old)
	tr := NewHTTPTransport(servePeer(t, &cur).URL, nil)
	mustAppend(t, tr, 1)

	release := holdAppends(old)
	defer release()
	errc := make(chan error, 1)
	go func() {
		_, err := tr.AppendEntries(context.Background(), appendAt(2, op))
		errc <- err
	}()
	waitFor(t, "the call to be pending", func() bool {
		s := tr.current()
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pending) == 1
	})
	restarted := loneFollower(t)
	cur.Store(restarted)
	old.Stop()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("the pending call succeeded across a restart")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pending call outlived its peer's restart")
	}
	waitFor(t, "the broken stream to be dropped", func() bool { return tr.current() == nil })
	mustAppend(t, tr, 1) // the restarted peer's log is empty
	if st := restarted.Status(); st.LastSeq != 1 {
		t.Fatalf("restarted peer holds %d entries, want 1", st.LastSeq)
	}
}

// TestStopClosesStreams: Stop closes a node's outbound connections and
// its inbound streams, and every goroutine the streams ran exits.
func TestStopClosesStreams(t *testing.T) {
	base := runtime.NumGoroutine()
	var cur atomic.Pointer[Node]
	peer := loneFollower(t)
	cur.Store(peer)
	ts := servePeer(t, &cur)
	tr := NewHTTPTransport(ts.URL, nil)
	n := loneFollower(t)
	n.mu.Lock()
	n.trans["peer"] = tr // an outbound transport the node owns
	n.mu.Unlock()
	mustAppend(t, tr, 1)
	streams := func(n *Node) int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.streams)
	}
	if got := streams(peer); got != 1 {
		t.Fatalf("peer serves %d streams, want 1", got)
	}

	n.Stop() // outbound: the peer sees its inbound stream end
	waitFor(t, "the peer's inbound stream to end", func() bool { return streams(peer) == 0 })
	if tr.current() != nil {
		t.Fatal("Stop left the outbound connection open")
	}

	mustAppend(t, tr, 2) // the transport redials
	peer.Stop()          // inbound: the caller's stream breaks
	waitFor(t, "the caller's stream to break", func() bool { return tr.current() == nil })

	ts.Close()
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestLateReplyDropped: a call whose ctx expires returns; its reply,
// arriving later, is dropped, and the stream carries the next call.
func TestLateReplyDropped(t *testing.T) {
	var cur atomic.Pointer[Node]
	peer := loneFollower(t)
	cur.Store(peer)
	tr := NewHTTPTransport(servePeer(t, &cur).URL, nil)
	mustAppend(t, tr, 1)
	s := tr.current()

	release := holdAppends(peer)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := tr.AppendEntries(ctx, appendAt(2, op))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held call = %v, want DeadlineExceeded", err)
	}
	release()
	waitFor(t, "the late append to land", func() bool { return peer.Status().LastSeq == 2 })

	mustAppend(t, tr, 3)
	if tr.current() != s {
		t.Fatal("a late reply cost the stream its connection")
	}
}

// TestConcurrentCallsGetTheirOwnReplies: pipelined calls on one stream
// each get the reply to their own request. A pre-vote is answered from
// state it does not change, granted exactly when its term is above the
// voter's (32), so every call knows the reply it must see.
func TestConcurrentCallsGetTheirOwnReplies(t *testing.T) {
	var cur atomic.Pointer[Node]
	cur.Store(loneFollower(t))
	tr := NewHTTPTransport(servePeer(t, &cur).URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tr.RequestVote(ctx, &VoteRequest{Term: 32, CandidateID: "c"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := uint64(1); i <= 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := tr.RequestVote(ctx, &VoteRequest{Term: i, CandidateID: "c", PreVote: true})
			if err != nil {
				t.Errorf("pre-vote at term %d: %v", i, err)
				return
			}
			if resp.Term != 32 || resp.Granted != (i > 32) {
				t.Errorf("pre-vote at term %d answered %+v", i, resp)
			}
		}()
	}
	wg.Wait()
}

// TestStreamRefusesEntryDataThatIsNotJSON: entry data crosses the wire
// verbatim, so the follower's journal is what refuses data that is not
// JSON. The refusal is a reply; the stream carries on.
func TestStreamRefusesEntryDataThatIsNotJSON(t *testing.T) {
	var cur atomic.Pointer[Node]
	peer := loneFollower(t)
	cur.Store(peer)
	tr := NewHTTPTransport(servePeer(t, &cur).URL, nil)
	bad := appendAt(1, op)
	bad.Entries[0].Data = json.RawMessage(`{"x":`)
	if _, err := tr.AppendEntries(context.Background(), bad); err == nil {
		t.Fatal("an entry whose data is not JSON was accepted")
	}
	if st := peer.Status(); st.LastSeq != 0 {
		t.Fatalf("the refused entry reached the log (last seq %d)", st.LastSeq)
	}
	mustAppend(t, tr, 1)
}

// TestOversizedMessageRefusedUnread: a header declaring a payload past
// maxMessage ends the stream before any of the payload is read or
// buffered.
func TestOversizedMessageRefusedUnread(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxMessage+1)
	hdr = append(hdr, kindAppend)
	hdr = binary.BigEndian.AppendUint64(hdr, 1)
	c := newCodec(bytes.NewReader(hdr), nil)
	if _, _, _, err := c.read(requestBody); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("oversized message = %v, want a refusal naming the bound", err)
	}
	if c.in.Cap() != 0 {
		t.Fatalf("refusal buffered %d bytes", c.in.Cap())
	}
}
