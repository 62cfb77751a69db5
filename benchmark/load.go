package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	wl "sparcle/internal/workload"
)

// opClient is one load-generator worker's connection: a single keep-alive
// connection to the node writes go to.
type opClient struct {
	hc   *http.Client
	base *atomic.Pointer[string] // shared: the leader's base URL
	// tag, when set, stamps each request with its operation id so the
	// traced pass can tie server-side spans to the request.
	tag func(req *http.Request, op int)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// do sends one request and returns the status and body; status 0 is a
// transport error or timeout.
func (c *opClient) do(method, path string, body []byte, op int) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, *c.base.Load()+path, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tag != nil {
		c.tag(req, op)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// tally is what one phase observed.
type tally struct {
	submitted, admitted, rejected int
	evicted, reads, failed        int
	// cross counts admissions the router placed across two regions.
	cross                   int
	admitMS, evictMS, lagMS []float64
	// admittedAt is when each admission was acknowledged, since the phase
	// start; elapsed is how long a closed phase ran, its last requests
	// included.
	admittedAt []time.Duration
	elapsed    time.Duration
}

func (t *tally) attempted() int { return t.submitted + t.evicted + t.reads }

func (t *tally) add(o *tally) {
	t.submitted += o.submitted
	t.admitted += o.admitted
	t.rejected += o.rejected
	t.evicted += o.evicted
	t.reads += o.reads
	t.failed += o.failed
	t.cross += o.cross
}

// load drives one cluster with the workload's traffic, holding the
// resident set at K: every admission is followed, on the same worker, by
// the eviction of the oldest resident.
type load struct {
	w       *workload
	gen     *generator
	clients []*opClient

	mu        sync.Mutex
	residents []string // oldest first
	ops       int      // operation ids handed out
	// record, when set, receives every operation in issue order (traced pass).
	record func(op int, kind string, name string, body []byte)
}

func (l *load) nextOp(kind, name string, body []byte) int {
	l.ops++
	if l.record != nil {
		l.record(l.ops, kind, name, body)
	}
	return l.ops
}

// admit submits req on c and, when admitted, evicts the oldest resident.
// start is when latency counting begins (send time, or the due time in
// the open phase). writes counts this worker's writes for the read mix.
func (l *load) admit(c *opClient, req request, start time.Time, phaseStart time.Time, t *tally, writes *int) {
	l.mu.Lock()
	op := l.nextOp("admit", req.Name, req.Body)
	l.mu.Unlock()
	t.submitted++
	status, reply := c.do(http.MethodPost, "/apps", req.Body, op)
	done := time.Now()
	*writes++
	switch status {
	case http.StatusCreated:
		t.admitted++
		t.admittedAt = append(t.admittedAt, done.Sub(phaseStart))
		if bytes.Contains(reply, []byte(`"cross":`)) {
			t.cross++
		}
		t.admitMS = append(t.admitMS, ms(dueLatency(start, done)))
	case http.StatusConflict:
		// An admission-control verdict, not a failure.
		t.rejected++
		t.admitMS = append(t.admitMS, ms(dueLatency(start, done)))
	default:
		t.failed++
	}
	if status == http.StatusCreated {
		l.mu.Lock()
		l.residents = append(l.residents, req.Name)
		oldest := l.residents[0]
		l.residents = l.residents[1:]
		eop := l.nextOp("evict", oldest, nil)
		l.mu.Unlock()
		l.evict(c, oldest, eop, t)
		*writes++
	}
	if l.w.ReadEvery > 0 && *writes >= l.w.ReadEvery {
		*writes = 0
		l.mu.Lock()
		rop := l.nextOp("read", "", nil)
		l.mu.Unlock()
		t.reads++
		if status, _ := c.do(http.MethodGet, "/apps", nil, rop); status != http.StatusOK {
			t.failed++
		}
	}
}

func (l *load) evict(c *opClient, name string, op int, t *tally) {
	t0 := time.Now()
	status, _ := c.do(http.MethodDelete, "/apps/"+name, nil, op)
	t.evicted++
	if status == http.StatusOK {
		t.evictMS = append(t.evictMS, ms(time.Since(t0)))
	} else {
		t.failed++
	}
}

// preload admits requests serially until K are resident and returns the
// bodies it sent, in order, for the output check. Rejected requests
// (mixed traffic) are sent on; anything else is an error.
func (l *load) preload(t *tally) [][]byte {
	var bodies [][]byte
	c := l.clients[0]
	for len(l.residents) < l.w.K && t.failed == 0 {
		req := l.gen.next()
		bodies = append(bodies, req.Body)
		op := l.nextOp("admit", req.Name, req.Body)
		t.submitted++
		switch status, _ := c.do(http.MethodPost, "/apps", req.Body, op); status {
		case http.StatusCreated:
			t.admitted++
			l.residents = append(l.residents, req.Name)
		case http.StatusConflict:
			t.rejected++
		default:
			t.failed++
		}
	}
	return bodies
}

// drain evicts every resident.
func (l *load) drain(t *tally) {
	for _, name := range l.residents {
		l.evict(l.clients[0], name, l.nextOp("evict", name, nil), t)
	}
	l.residents = nil
}

// closed runs the workers back-to-back until stop returns true (a
// deadline, or a fixed operation count) and returns what they saw.
func (l *load) closed(stop func() bool) *tally {
	start := time.Now()
	parts := make([]*tally, len(l.clients))
	var wg sync.WaitGroup
	for i, c := range l.clients {
		parts[i] = &tally{}
		wg.Add(1)
		go func(c *opClient, t *tally) {
			defer wg.Done()
			writes := 0
			for !stop() {
				l.mu.Lock()
				req := l.gen.next()
				l.mu.Unlock()
				l.admit(c, req, time.Now(), start, t, &writes)
			}
		}(c, parts[i])
	}
	wg.Wait()
	out := merge(parts)
	out.elapsed = time.Since(start)
	return out
}

func merge(parts []*tally) *tally {
	out := &tally{}
	for _, p := range parts {
		out.add(p)
		out.admitMS = append(out.admitMS, p.admitMS...)
		out.evictMS = append(out.evictMS, p.evictMS...)
		out.admittedAt = append(out.admittedAt, p.admittedAt...)
	}
	return out
}

// reached stops a closed loop once n operations have been issued in all.
func (l *load) reached(n int) func() bool {
	return func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.ops >= n
	}
}

func until(deadline time.Time) func() bool {
	return func() bool { return !time.Now().Before(deadline) }
}

// arrival is one open-phase admission and the time it is due.
type arrival struct {
	req request
	due time.Time
}

// open offers seeded Poisson arrivals at the workload's fixed rate for d,
// dispatched to the workers in due order. Latency counts from the due
// time, so waiting for a free connection is charged to the system; an
// arrival still unsent lateLimit after it was due fails.
func (l *load) open(d time.Duration, seed int64) *tally {
	poisson, err := wl.NewPoisson(l.w.R, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err) // R is a positive constant of the specification
	}
	// Room for every arrival of the phase: the dispatcher must never
	// block on the workers, or the loop would close.
	jobs := make(chan arrival, int(l.w.R*d.Seconds()*2)+64)
	parts := make([]*tally, len(l.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range l.clients {
		parts[i] = &tally{}
		wg.Add(1)
		go func(c *opClient, t *tally) {
			defer wg.Done()
			writes := 0
			for a := range jobs {
				if time.Since(a.due) > lateLimit {
					t.submitted++
					t.failed++
					continue
				}
				l.admit(c, a.req, a.due, start, t, &writes)
			}
		}(c, parts[i])
	}
	// The dispatcher sleeps in the kernel on its own thread: Go's timers
	// wake through the network poller, which rounds up to a millisecond,
	// and a generator that late would be measuring itself.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var lag []float64
	for next := poisson.Next(); next < d; next += poisson.Next() {
		due := start.Add(next)
		sleepUntil(due)
		lag = append(lag, ms(lateness(due, time.Now())))
		l.mu.Lock()
		req := l.gen.next()
		l.mu.Unlock()
		jobs <- arrival{req: req, due: due}
	}
	close(jobs)
	wg.Wait()
	out := merge(parts)
	out.lagMS = lag
	return out
}

// sleepUntil blocks the calling thread until t with the kernel's
// high-resolution timer.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the arrival punctual
	}
}
