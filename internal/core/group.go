package core

import (
	"sync"
	"sync/atomic"

	"sparcle/internal/obs"
)

// Group commit turns concurrent single-app admissions into shared batch
// work. Every concurrent submitter pays for one warm BE solve and one
// journal append+fsync today; SubmitBatch already amortizes K admissions
// into one of each, but only for callers that arrive as a batch. The
// GroupCommitter closes that gap at the front door: a submitter either
// becomes the group's leader — draining every queued admission, running
// the whole group through one commit — or parks as a follower and is
// woken with its own BatchResult when the group lands.
//
// The committer sits *above* the scheduler lock. It owns no scheduler
// state; the caller supplies a commit function that takes whatever lock
// serializes the scheduler (a shard slot's mutex), runs
// SubmitBatch for the assembled group, and releases it. Everything that
// is not the commit itself — HTTP decode, app build, queueing — happens
// off that lock, so the lock is held exactly once per group rather than
// once per admission.
//
// Leadership is handed off, not held: a leader commits exactly one
// group, distributes results, and then promotes the current queue head
// to lead the next group. Natural batching follows from arrival
// pressure alone — while one group is inside the commit function, every
// new submitter queues behind it and the next leader drains them all —
// so grouping adds no latency at low offered rates (a lone submitter
// leads its own group of one immediately).

// Metric names for the group-commit series.
const (
	metricGroupSize    = "sparcle_group_commit_size"
	metricGroupLeads   = "sparcle_group_commit_leads_total"
	metricGroupFollows = "sparcle_group_commit_follows_total"
)

// groupSizeBuckets resolve group sizes from singletons up to the
// largest configurable group.
var groupSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// GroupCommitFunc commits one assembled group under the caller's
// scheduler lock. It must return one BatchResult per app (SubmitBatch's
// contract); a non-nil error is the group-level verdict (for example
// ErrDurability) and is delivered to every member alongside its result.
// The apps slice is reused by the committer after the call returns and
// must not be retained.
type GroupCommitFunc func(apps []App, lead *obs.Span) ([]BatchResult, error)

// GroupOptions configures a GroupCommitter.
type GroupOptions struct {
	// MaxSize caps the applications committed as one group; a leader
	// stops draining the queue at the cap (whole enqueued batches are
	// never split). Defaults to 64. The first entry always commits,
	// even when it alone exceeds the cap.
	MaxSize int
	// Metrics, when non-nil, receives the group-commit series:
	// sparcle_group_commit_size, _leads_total, _follows_total.
	Metrics *obs.Registry
}

// GroupStats is a point-in-time view of a committer's activity, served
// from /healthz when group commit is enabled.
type GroupStats struct {
	// Groups is the number of groups committed (every group has
	// exactly one leader).
	Groups uint64 `json:"groups"`
	// Follows counts submitters that parked and were woken by a
	// leader; Groups+Follows is the total number of enqueued entries.
	Follows uint64 `json:"follows"`
	// Apps is the total applications committed through the group path.
	Apps uint64 `json:"apps"`
	// MaxSize echoes the configuration.
	MaxSize int `json:"maxSize"`
}

// groupOutcome is what a leader delivers to each parked waiter: the
// waiter's slice of the group's results plus the group-level error.
type groupOutcome struct {
	results []BatchResult
	err     error
}

// groupWaiter is one queue entry: one submitter's apps (a single app or
// a whole client batch) and the channels its goroutine parks on. Both
// channels have capacity 1 and each is used at most once per cycle, so
// waiters recycle through a pool without reallocating channels.
type groupWaiter struct {
	apps  []App
	outc  chan groupOutcome
	leadc chan struct{}
}

// GroupCommitter coalesces concurrent submissions into group commits.
type GroupCommitter struct {
	commit GroupCommitFunc
	opt    GroupOptions

	mu      sync.Mutex
	queue   []*groupWaiter
	leading bool

	waiters sync.Pool // *groupWaiter
	appsBuf sync.Pool // *[]App
	drained sync.Pool // *[]*groupWaiter

	groups  atomic.Uint64
	follows atomic.Uint64
	apps    atomic.Uint64
}

// NewGroupCommitter returns a committer that assembles groups and runs
// them through commit. The commit function is responsible for locking.
func NewGroupCommitter(commit GroupCommitFunc, opt GroupOptions) *GroupCommitter {
	if opt.MaxSize <= 0 {
		opt.MaxSize = 64
	}
	if reg := opt.Metrics; reg != nil {
		reg.SetHelp(metricGroupSize, "Applications committed per admission group.")
		reg.SetHelp(metricGroupLeads, "Admission groups committed (one leader per group).")
		reg.SetHelp(metricGroupFollows, "Submitters that parked as group-commit followers.")
		// Materialize the series so they are visible before traffic.
		reg.Histogram(metricGroupSize, groupSizeBuckets)
		reg.Counter(metricGroupLeads)
		reg.Counter(metricGroupFollows)
	}
	return &GroupCommitter{commit: commit, opt: opt}
}

// Stats returns cumulative group-commit counters.
func (g *GroupCommitter) Stats() GroupStats {
	if g == nil {
		return GroupStats{}
	}
	return GroupStats{
		Groups:  g.groups.Load(),
		Follows: g.follows.Load(),
		Apps:    g.apps.Load(),
		MaxSize: g.opt.MaxSize,
	}
}

// Submit routes one application through the group path and returns its
// own BatchResult. The error is the group-level verdict: non-nil when
// the whole group failed (allocation rollback, durability), in which
// case the result's Err carries the per-app view of the same failure.
func (g *GroupCommitter) Submit(app App, sp *obs.Span) (BatchResult, error) {
	w := g.getWaiter()
	w.apps = append(w.apps, app)
	results, err := g.run(w, sp)
	if len(results) == 0 {
		return BatchResult{Name: app.Name, Err: err}, err
	}
	return results[0], err
}

// SubmitMany routes a client batch through the group path as one
// indivisible entry: the batch commits whole inside whatever group it
// lands in, preserving POST /apps/batch atomicity while letting
// concurrent single submits share its solve and fsync.
func (g *GroupCommitter) SubmitMany(apps []App, sp *obs.Span) ([]BatchResult, error) {
	w := g.getWaiter()
	w.apps = append(w.apps, apps...)
	return g.run(w, sp)
}

// run enqueues the waiter and either leads the next group or parks
// until a leader delivers this waiter's outcome (or promotes it).
func (g *GroupCommitter) run(w *groupWaiter, sp *obs.Span) ([]BatchResult, error) {
	g.mu.Lock()
	g.queue = append(g.queue, w)
	isLeader := !g.leading
	if isLeader {
		g.leading = true
	}
	g.mu.Unlock()

	if !isLeader {
		wsp := sp.Child("group.wait")
		select {
		case out := <-w.outc:
			wsp.End()
			g.follows.Add(1)
			if reg := g.opt.Metrics; reg != nil {
				reg.Counter(metricGroupFollows).Inc()
			}
			g.putWaiter(w)
			return out.results, out.err
		case <-w.leadc:
			// The previous leader committed without us and handed the
			// queue head — this waiter — the next group.
			wsp.End()
		}
	}
	return g.lead(w, sp)
}

// lead drains the queue head into a group, commits it, distributes the
// results, and hands leadership to the next queued waiter (if any).
func (g *GroupCommitter) lead(self *groupWaiter, sp *obs.Span) ([]BatchResult, error) {
	lsp := sp.Child("group.lead")

	// Drain whole waiters from the queue head up to MaxSize apps. The
	// leader is always queue[0] (a promoted waiter is promoted *as* the
	// head; a fresh leader found the queue empty), so it is always in
	// its own group.
	g.mu.Lock()
	n, total := 0, 0
	for _, w := range g.queue {
		if n > 0 && total+len(w.apps) > g.opt.MaxSize {
			break
		}
		total += len(w.apps)
		n++
	}
	drainedp := g.getDrained()
	drained := append((*drainedp)[:0], g.queue[:n]...)
	rem := copy(g.queue, g.queue[n:])
	for i := rem; i < len(g.queue); i++ {
		g.queue[i] = nil
	}
	g.queue = g.queue[:rem]
	g.mu.Unlock()

	appsp := g.getApps()
	apps := (*appsp)[:0]
	for _, w := range drained {
		apps = append(apps, w.apps...)
	}
	lsp.SetInt("apps", int64(len(apps)))
	lsp.SetInt("waiters", int64(len(drained)))

	results, err := g.commit(apps, lsp)
	if len(results) < len(apps) {
		// Defensive: a commit function that returned short (it should
		// not) still owes every member a result.
		padded := make([]BatchResult, len(apps))
		copy(padded, results)
		for i := len(results); i < len(apps); i++ {
			padded[i] = BatchResult{Name: apps[i].Name, Err: err}
		}
		results = padded
	}

	g.groups.Add(1)
	g.apps.Add(uint64(len(apps)))
	if reg := g.opt.Metrics; reg != nil {
		reg.Counter(metricGroupLeads).Inc()
		reg.Histogram(metricGroupSize, groupSizeBuckets).Observe(float64(len(apps)))
	}

	// Distribute: each waiter receives its own subslice of the group's
	// results (capacity-clipped so no waiter can append into another's).
	var selfOut groupOutcome
	off := 0
	for _, w := range drained {
		k := len(w.apps)
		out := groupOutcome{results: results[off : off+k : off+k], err: err}
		off += k
		if w == self {
			selfOut = out
			continue
		}
		w.outc <- out
	}
	*appsp = apps
	g.putApps(appsp)
	*drainedp = drained
	g.putDrained(drainedp)
	g.putWaiter(self)
	lsp.End()

	// Hand off: promote the new queue head, or stand down if the queue
	// drained empty.
	g.mu.Lock()
	var next *groupWaiter
	if len(g.queue) == 0 {
		g.leading = false
	} else {
		next = g.queue[0]
	}
	g.mu.Unlock()
	if next != nil {
		next.leadc <- struct{}{}
	}
	return selfOut.results, selfOut.err
}

func (g *GroupCommitter) getWaiter() *groupWaiter {
	if w, ok := g.waiters.Get().(*groupWaiter); ok {
		return w
	}
	return &groupWaiter{
		outc:  make(chan groupOutcome, 1),
		leadc: make(chan struct{}, 1),
	}
}

func (g *GroupCommitter) putWaiter(w *groupWaiter) {
	for i := range w.apps {
		w.apps[i] = App{}
	}
	w.apps = w.apps[:0]
	g.waiters.Put(w)
}

// The slice pools hand out and take back *[]T so the pointer itself
// recycles; Put(&local) would allocate a fresh header box per cycle.
func (g *GroupCommitter) getApps() *[]App {
	if p, ok := g.appsBuf.Get().(*[]App); ok {
		return p
	}
	return new([]App)
}

func (g *GroupCommitter) putApps(p *[]App) {
	apps := *p
	for i := range apps {
		apps[i] = App{}
	}
	*p = apps[:0]
	g.appsBuf.Put(p)
}

func (g *GroupCommitter) getDrained() *[]*groupWaiter {
	if p, ok := g.drained.Get().(*[]*groupWaiter); ok {
		return p
	}
	return new([]*groupWaiter)
}

func (g *GroupCommitter) putDrained(p *[]*groupWaiter) {
	ws := *p
	for i := range ws {
		ws[i] = nil
	}
	*p = ws[:0]
	g.drained.Put(p)
}
