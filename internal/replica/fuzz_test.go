package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// permissiveSM accepts any replicated payload: the fuzz target probes
// the stream decode and log-manipulation paths, not state-machine
// decoding.
type permissiveSM struct{}

func (permissiveSM) Apply([]byte) error                          { return nil }
func (permissiveSM) SnapshotWith(write func([]byte) error) error { return write([]byte("{}")) }
func (permissiveSM) Restore([]byte, [][]byte) error              { return nil }

// message is one call of a fuzz seed.
type message struct {
	kind byte
	body any
}

// encodeStream writes msgs as a caller's side of one stream would.
func encodeStream(tb testing.TB, msgs ...message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := newCodec(nil, &buf)
	for i, m := range msgs {
		if err := c.write(m.kind, uint64(i+1), m.body, true); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzRPCDecode feeds arbitrary bytes to the server loop of one inbound
// replication stream. It must never panic — the append and install
// paths do uint sequence arithmetic and slice the in-memory tail from
// sender-controlled Seq/PrevSeq/SnapSeq values — every reply it writes
// must decode as a reply of a known kind, and no entry whose data is not
// JSON may reach the log.
func FuzzRPCDecode(f *testing.F) {
	appendOne := &AppendRequest{Term: 1, LeaderID: "ldr", PrevSeq: 0, LeaderCommit: 1,
		Entries: []Entry{{Seq: 1, Term: 1, Data: json.RawMessage(`"x"`)}}}
	seed := func(msgs ...message) { f.Add(encodeStream(f, msgs...)) }
	seed(message{kindAppend, appendOne})
	seed(message{kindAppend, &AppendRequest{Term: 2, LeaderID: "ldr", PrevSeq: 7, PrevTerm: 1}})
	seed(message{kindAppend, &AppendRequest{Term: 2, LeaderID: "ldr",
		Entries: []Entry{{Seq: 1, Term: 1, Conf: &Membership{Seq: 1, Members: []Member{{ID: "a", Voter: true}}}}}}})
	seed(message{kindVote, &VoteRequest{Term: 3, CandidateID: "cand", LastSeq: 9, LastTerm: 2}})
	seed(message{kindVote, &VoteRequest{Term: 3, CandidateID: "cand", PreVote: true}})
	seed(message{kindSnapshot, &InstallSnapshotRequest{Term: 2, LeaderID: "ldr", SnapSeq: 5, SnapTerm: 1,
		SnapConf: Membership{Seq: 3, Members: []Member{{ID: "a", Addr: "http://a", Voter: true}}},
		State:    []byte(`{}`), Entries: []Entry{{Seq: 6, Term: 2, Nop: true}}, LeaderCommit: 6}})
	seed(message{kindAppend, &AppendRequest{}})
	seed(message{kindAppend, appendOne}, message{kindVote, &VoteRequest{Term: 1, CandidateID: "ldr"}},
		message{kindAppend, &AppendRequest{Term: 1, LeaderID: "ldr", PrevSeq: 1, PrevTerm: 1, LeaderCommit: 1}})
	seed(message{kindSnapshot, &InstallSnapshotRequest{Term: ^uint64(0), SnapSeq: ^uint64(0)}})
	seed(message{kindAppend, &AppendRequest{Term: 1,
		Entries: []Entry{{Seq: 0, Term: 0}, {Seq: ^uint64(0), Term: 1}}}})
	f.Add([]byte("\x00\xff"))
	// An entry whose data is not JSON: the follower's journal refuses it.
	seed(message{kindAppend, &AppendRequest{Term: 1, LeaderID: "ldr", LeaderCommit: 1,
		Entries: []Entry{{Seq: 1, Term: 1, Data: json.RawMessage(`{"x":`)}}}})
	// A kind no peer sends, and a size past the bound.
	seed(message{kindError, "boom"})
	f.Add(binary.BigEndian.AppendUint32(nil, maxMessage+1))

	f.Fuzz(func(t *testing.T, in []byte) {
		// Fresh node per input: messages mutate the journal and log, and a
		// shared node would make failures depend on corpus order.
		n := loneFollower(t)
		var out bytes.Buffer
		if err := n.serveStream(bytes.NewReader(in), &out); err == nil {
			t.Fatal("serveStream returned without an error")
		}
		replies := newCodec(&out, nil)
		for {
			_, _, _, err := replies.read(replyBody)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("reply stream: %v", err)
			}
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, e := range n.tail {
			if len(e.Data) > 0 && !json.Valid(e.Data) {
				t.Fatalf("entry %d reached the log with data %q", e.Seq, e.Data)
			}
		}
	})
}
