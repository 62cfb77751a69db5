package shard

import "sparcle/internal/core"

// Group commit in the sharded router: one GroupCommitter per shard, so
// concurrent intra-region submits that land on the same region coalesce
// into one SubmitBatch under one shard-lock acquisition — one warm BE
// solve and one journal envelope for the whole group — while unrelated
// regions keep committing in parallel. Cross-region admissions keep
// their two-phase lease path ungrouped: they hold two shard locks plus
// the border mutex, and parking them inside a single shard's group
// would invert the lock order.

// EnableGroupCommit installs a committer on every shard. Call it after
// the journal is enabled: recovery rebuilds the router, and committers
// installed before that are discarded with the pre-recovery slots.
func (r *Router) EnableGroupCommit(opt core.GroupOptions) {
	for _, s := range r.slots {
		s.group = core.NewGroupCommitter(s.submitBatch, opt)
	}
}

// GroupStats sums the per-shard committers' counters; the zero value
// means group commit is not enabled.
func (r *Router) GroupStats() core.GroupStats {
	var total core.GroupStats
	for _, s := range r.slots {
		if s.group == nil {
			continue
		}
		st := s.group.Stats()
		total.Groups += st.Groups
		total.Follows += st.Follows
		total.Apps += st.Apps
		total.MaxSize = st.MaxSize
	}
	return total
}
