package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Transport reaches one peer. Implementations must be safe for
// concurrent use; errors are treated as the peer being unreachable (the
// protocol retries via heartbeats).
type Transport interface {
	AppendEntries(ctx context.Context, req *AppendRequest) (*AppendResponse, error)
	RequestVote(ctx context.Context, req *VoteRequest) (*VoteResponse, error)
	InstallSnapshot(ctx context.Context, req *InstallSnapshotRequest) (*InstallSnapshotResponse, error)
}

// PathStream is the route a peer upgrades to the replication stream,
// exempted from the server's write-redirect and recovering gates.
// maxMessage bounds a message's payload; a snapshot install carries the
// whole state-machine export plus the tail, so it sits well above the
// journal's 64 MiB record bound.
const (
	PathStream  = "/repl/stream"
	streamProto = "sparcle-repl/1"
	headerSize  = 13
	maxMessage  = 1 << 28
)

// Message kinds: a call carries its RPC's, and its reply the same one,
// or kindError with the handler's error text.
const (
	kindAppend byte = iota + 1
	kindVote
	kindSnapshot
	kindError
)

// codec reads and writes the messages of one stream. A message is a
// header — a 4-byte payload size, the kind byte and an 8-byte call id —
// and a payload holding one gob-encoded body. Each direction keeps one
// gob encoder, so a type's description crosses once per stream, and any
// error leaves it unusable: the stream ends. A size past maxMessage is
// refused before any of the payload is read.
type codec struct {
	r       *bufio.Reader
	w       *bufio.Writer
	in, out bytes.Buffer
	dec     *gob.Decoder
	enc     *gob.Encoder
	hdr     [headerSize]byte
}

var blankHeader [headerSize]byte

func newCodec(r io.Reader, w io.Writer) *codec {
	c := &codec{r: bufio.NewReader(r), w: bufio.NewWriter(w)}
	c.dec, c.enc = gob.NewDecoder(&c.in), gob.NewEncoder(&c.out)
	return c
}

// write buffers one message and, with flush, sends what is buffered.
func (c *codec) write(kind byte, id uint64, body any, flush bool) error {
	c.out.Reset()
	c.out.Write(blankHeader[:])
	if err := c.enc.Encode(body); err != nil {
		return err
	}
	b := c.out.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-headerSize))
	b[4] = kind
	binary.BigEndian.PutUint64(b[5:], id)
	if _, err := c.w.Write(b); err != nil || !flush {
		return err
	}
	return c.w.Flush()
}

// read reads one message into the body newBody makes for its kind (nil
// refuses the kind).
func (c *codec) read(newBody func(kind byte) any) (kind byte, id uint64, body any, err error) {
	if _, err = io.ReadFull(c.r, c.hdr[:]); err != nil {
		return
	}
	size, kind, id := binary.BigEndian.Uint32(c.hdr[:]), c.hdr[4], binary.BigEndian.Uint64(c.hdr[5:])
	if size > maxMessage {
		return kind, id, nil, fmt.Errorf("replica: %d-byte message exceeds the %d-byte bound", size, maxMessage)
	}
	if body = newBody(kind); body == nil {
		return kind, id, nil, fmt.Errorf("replica: message of unknown kind %d", kind)
	}
	c.in.Reset()
	if _, err = io.CopyN(&c.in, c.r, int64(size)); err == nil {
		err = c.dec.Decode(body)
	}
	return
}

func requestBody(kind byte) any {
	switch kind {
	case kindAppend:
		return new(AppendRequest)
	case kindVote:
		return new(VoteRequest)
	case kindSnapshot:
		return new(InstallSnapshotRequest)
	}
	return nil
}

func replyBody(kind byte) any {
	switch kind {
	case kindAppend:
		return new(AppendResponse)
	case kindVote:
		return new(VoteResponse)
	case kindSnapshot:
		return new(InstallSnapshotResponse)
	case kindError:
		return new(string)
	}
	return nil
}

// HTTPTransport reaches one peer over one long-lived connection: a POST
// to PathStream upgraded to a stream of pipelined messages. A reader
// goroutine hands each reply to its caller by call id and drops a reply
// whose caller gave up. Any read or write error closes the connection
// and fails every pending call; the next call dials again.
type HTTPTransport struct {
	addr string
	mu   sync.Mutex
	cur  *stream
}

// stream is one upgraded connection and the calls waiting on it.
type stream struct {
	nc      net.Conn
	wmu     sync.Mutex // orders whole messages; readReplies alone reads
	c       *codec
	done    chan struct{} // closed when readReplies returns
	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan any // each gets its reply body or an error
	err     error
}

// NewHTTPTransport returns a transport for the peer at baseURL (e.g.
// "http://10.0.0.2:8080"). The client argument is unused: the transport
// dials its own connection.
func NewHTTPTransport(baseURL string, _ *http.Client) *HTTPTransport {
	addr := strings.TrimPrefix(strings.TrimRight(baseURL, "/"), "http://")
	if _, _, err := net.SplitHostPort(addr); err != nil {
		addr = net.JoinHostPort(addr, "80")
	}
	return &HTTPTransport{addr: addr}
}

func (t *HTTPTransport) AppendEntries(ctx context.Context, req *AppendRequest) (*AppendResponse, error) {
	return call[AppendResponse](ctx, t, kindAppend, req)
}

func (t *HTTPTransport) RequestVote(ctx context.Context, req *VoteRequest) (*VoteResponse, error) {
	return call[VoteResponse](ctx, t, kindVote, req)
}

func (t *HTTPTransport) InstallSnapshot(ctx context.Context, req *InstallSnapshotRequest) (*InstallSnapshotResponse, error) {
	return call[InstallSnapshotResponse](ctx, t, kindSnapshot, req)
}

// Close closes the connection, fails its pending calls and waits for
// its reader to exit. The transport stays usable: a later call dials
// again.
func (t *HTTPTransport) Close() error {
	t.mu.Lock()
	s := t.cur
	t.cur = nil
	t.mu.Unlock()
	if s != nil {
		s.fail(net.ErrClosed)
		<-s.done
	}
	return nil
}

func call[Resp any](ctx context.Context, t *HTTPTransport, kind byte, req any) (*Resp, error) {
	s, err := t.stream(ctx)
	if err != nil {
		return nil, err
	}
	ch := make(chan any, 1)
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.next++
	id := s.next
	s.pending[id] = ch
	s.mu.Unlock()

	s.wmu.Lock()
	dl, _ := ctx.Deadline()
	s.nc.SetWriteDeadline(dl)
	err = s.c.write(kind, id, req, true)
	s.wmu.Unlock()
	if err != nil {
		s.fail(err) // answers ch
	}

	select {
	case body := <-ch:
		switch body := body.(type) {
		case *Resp:
			return body, nil
		case error:
			return nil, body
		case *string:
			return nil, fmt.Errorf("replica: peer: %s", *body)
		}
		return nil, fmt.Errorf("replica: reply %T to a call of kind %d", body, kind)
	case <-ctx.Done():
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// stream returns the live connection, or dials and upgrades one,
// bounded by ctx. Of two calls dialing at once, the later one keeps the
// earlier one's connection.
func (t *HTTPTransport) stream(ctx context.Context) (*stream, error) {
	t.mu.Lock()
	s := t.cur
	t.mu.Unlock()
	if s != nil {
		return s, nil
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	dl, _ := ctx.Deadline()
	nc.SetDeadline(dl)
	s = &stream{nc: nc, c: newCodec(nc, nc), done: make(chan struct{}), pending: make(map[uint64]chan any)}
	fmt.Fprintf(s.c.w, "POST %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", PathStream, t.addr, streamProto)
	var res *http.Response
	if err = s.c.w.Flush(); err == nil {
		res, err = http.ReadResponse(s.c.r, nil)
	}
	if err == nil && res.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		err = fmt.Errorf("replica: %s: %s: %s", PathStream, res.Status, bytes.TrimSpace(msg))
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		nc.Close()
		return t.cur, nil
	}
	t.cur = s
	go t.readReplies(s)
	return s, nil
}

// readReplies routes each reply to its waiting call until the stream
// breaks.
func (t *HTTPTransport) readReplies(s *stream) {
	defer close(s.done)
	for {
		_, id, body, err := s.c.read(replyBody)
		if err != nil {
			s.fail(err)
			t.mu.Lock()
			if t.cur == s {
				t.cur = nil
			}
			t.mu.Unlock()
			return
		}
		s.mu.Lock()
		if ch := s.pending[id]; ch != nil {
			ch <- body // buffered, and sent to once: it leaves pending
			delete(s.pending, id)
		}
		s.mu.Unlock()
	}
}

// fail closes the stream, failing every pending call with the first
// error.
func (s *stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("replica: peer stream: %w", err)
		for _, ch := range s.pending {
			ch <- s.err
		}
		s.pending = nil
	}
	s.mu.Unlock()
	s.nc.Close()
}

// Handler serves the node's side of the replication stream: it upgrades
// POST PathStream and answers the stream's messages in order until the
// connection breaks or the node stops.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathStream, func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if r.Header.Get("Upgrade") != streamProto || !ok {
			http.Error(w, "replica: upgrade to "+streamProto+" required", http.StatusUpgradeRequired)
			return
		}
		nc, rw, err := hj.Hijack()
		if err != nil {
			return
		}
		defer nc.Close()
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		n.streams[nc] = struct{}{}
		n.mu.Unlock()
		// The server's timeouts were meant for one request.
		nc.SetDeadline(time.Time{})
		fmt.Fprintf(rw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", streamProto)
		if rw.Flush() == nil {
			n.serveStream(rw.Reader, rw.Writer)
		}
		n.mu.Lock()
		delete(n.streams, nc)
		n.mu.Unlock()
	})
	return mux
}

// serveStream answers the messages read from r in order, writing the
// replies to w, until a read, decode or write fails.
func (n *Node) serveStream(r io.Reader, w io.Writer) error {
	c := newCodec(r, w)
	for {
		kind, id, req, err := c.read(requestBody)
		if err != nil {
			return err
		}
		var resp any
		switch req := req.(type) {
		case *AppendRequest:
			resp, err = n.HandleAppendEntries(req)
		case *VoteRequest:
			resp, err = n.HandleRequestVote(req)
		case *InstallSnapshotRequest:
			resp, err = n.HandleInstallSnapshot(req)
		}
		if err != nil {
			kind, resp = kindError, err.Error()
		}
		// Flush once the pipelined calls are all answered.
		if err := c.write(kind, id, resp, c.r.Buffered() == 0); err != nil {
			return err
		}
	}
}
