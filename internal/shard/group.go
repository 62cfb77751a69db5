package shard

import "sparcle/internal/core"

// Group commit in the sharded router: every shard has a GroupCommitter,
// built with the router, so concurrent intra-region submits that land on
// the same region coalesce into one SubmitBatch under one shard-lock
// acquisition — one warm BE solve and one journal envelope for the whole
// group — while unrelated regions keep committing in parallel. A lone
// submit is a group of one. Cross-region admissions keep their two-phase
// lease path outside the groups: they hold two shard locks plus the
// border mutex, and parking them inside a single shard's group would
// invert the lock order, so each half is a core Submit (a batch of one)
// under both locks.

// GroupStats sums the per-shard committers' counters.
func (r *Router) GroupStats() core.GroupStats {
	var total core.GroupStats
	for _, s := range r.slots {
		st := s.group.Stats()
		total.Groups += st.Groups
		total.Follows += st.Follows
		total.Apps += st.Apps
		total.MaxSize = st.MaxSize
	}
	return total
}
