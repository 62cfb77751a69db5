package server

import (
	"fmt"

	"sparcle/internal/core"
	"sparcle/internal/obs"
)

// The commit queue. POST /apps never takes the scheduler lock per
// request: the handler decodes and builds the app off-lock, then hands
// it to the GroupCommitter, which coalesces every submitter that arrives
// while a commit is in flight into the next group — one lock
// acquisition, one warm BE solve, and one journal append+fsync for the
// whole group. A lone submitter leads its own group of one immediately.
// POST /apps/batch composes: a client batch enters the queue as one
// indivisible entry and merges with concurrent single submits. New
// builds the unsharded server's committer and NewSharded arms one per
// shard; the server re-arms every router it rebuilds (restoreRouter).

// EnableGroupCommit replaces the commit queue's bounds (zero fields
// keep the defaults: groups of at most 64). Call it before the server
// takes traffic.
func (s *Server) EnableGroupCommit(opt core.GroupOptions) {
	if opt.Metrics == nil {
		opt.Metrics = s.metrics
	}
	s.mu.Lock()
	s.groupOpt = opt
	s.mu.Unlock()
	if rt := s.rt(); rt != nil {
		rt.EnableGroupCommit(opt)
		return
	}
	s.group = core.NewGroupCommitter(s.groupCommit, opt)
}

// groupCommit is the committer's commit function: it takes the
// scheduler lock once for the whole group, rejects duplicate names
// (against admitted apps and within the group — the check cannot run
// off-lock without racing), and runs the group through SubmitBatch: one
// solve, one journal record. It reads s.sched under the lock, so a
// scheduler swapped in by recovery or a replicated restore is picked up
// without re-arming.
func (s *Server) groupCommit(apps []core.App, lead *obs.Span) ([]core.BatchResult, error) {
	defer s.lockWithSpan(lead)()
	results := make([]core.BatchResult, len(apps))
	sub := make([]core.App, 0, len(apps))
	idx := make([]int, 0, len(apps))
	var seen map[string]bool
	for i, app := range apps {
		results[i].Name = app.Name
		if s.sched.HasApp(app.Name) || seen[app.Name] {
			results[i].Err = fmt.Errorf("application %q already admitted: %w", app.Name, core.ErrRejected)
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, len(apps))
		}
		seen[app.Name] = true
		sub = append(sub, app)
		idx = append(idx, i)
	}
	if len(sub) == 0 {
		// Nothing to admit (a retried POST, a batch whose specs all
		// failed to build): no solve, no journal record, no quorum round.
		return results, nil
	}
	res, err := s.sched.SubmitBatch(sub)
	for j := range res {
		results[idx[j]] = res[j]
	}
	return results, err
}

// groupStats returns the /healthz view of commit-queue activity.
func (s *Server) groupStats() core.GroupStats {
	if rt := s.rt(); rt != nil {
		return rt.GroupStats()
	}
	return s.group.Stats()
}
