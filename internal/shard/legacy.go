package shard

import (
	"slices"

	"sparcle/internal/core"
)

// foldLegacy rewrites, as a pure function of the log, a journal written
// when a cross-region operation was several entries: each half's record
// tagged with its app (Envelope.Cross), then a lease envelope. A crash
// between them tore the operation, and the recovery that followed
// withdrew the debris with more tagged records. The tagged records of one
// app form a group, which ends at its lease record, at the next entry of
// another operation on one of its shards (the operation held their
// locks throughout), or at the end of the log. A group its lease closes
// becomes one envelope with the lease. A group that ends otherwise
// becomes one envelope if its admits and removes cancel out, leaving the
// app with no half and no lease (a rejected admission, or a torn one a
// recovery withdrew), and is dropped otherwise: a crash tore it, and
// dropping it leaves the state the operation found.
func foldLegacy(snap *RouterSnapshot, envs []*Envelope) []*Envelope {
	if !slices.ContainsFunc(envs, func(env *Envelope) bool { return env.Cross != "" }) {
		return envs
	}
	// halves counts each app's resident halves and leased marks its
	// lease, over the snapshot and the envelopes folded so far.
	halves, leased := map[string]int{}, map[string]bool{}
	count := func(name string, delta int) {
		if logical, _, ok := logicalOfHalf(name); ok {
			halves[logical] += delta
		}
	}
	if snap != nil {
		for _, ss := range snap.Shards {
			for _, st := range append(slices.Clone(ss.GR), ss.BE...) {
				count(st.Def.Name, 1)
			}
		}
		for _, lr := range snap.Leases {
			leased[lr.App] = true
		}
	}
	var out []*Envelope
	emit := func(env *Envelope) {
		out = append(out, env)
		for _, st := range env.Steps {
			count(st.Rec.Name, halfDelta(st.Rec))
		}
		if env.Lease != nil {
			leased[env.Lease.App] = env.Lease.Op != leaseRelease
		}
	}
	type group struct {
		app string
		env *Envelope
	}
	var open []group
	end := func(g group) {
		delta := 0
		for _, st := range g.env.Steps {
			delta += halfDelta(st.Rec)
		}
		if halves[g.app]+delta == 0 && !leased[g.app] {
			emit(g.env)
		}
	}
	for _, env := range envs {
		app := env.Cross
		if env.Lease != nil && env.Steps == nil && slices.ContainsFunc(open, func(g group) bool { return g.app == env.Lease.App }) {
			app = env.Lease.App
		}
		open = slices.DeleteFunc(open, func(g group) bool {
			ends := g.app != app && slices.ContainsFunc(g.env.Steps, func(st Step) bool { return touches(env, st.Shard) })
			if ends {
				end(g)
			}
			return ends
		})
		i := slices.IndexFunc(open, func(g group) bool { return g.app == app })
		switch {
		case env.Cross != "" && i < 0:
			open = append(open, group{app, &Envelope{Shard: -1, Steps: []Step{{env.Shard, env.Rec}}}})
		case env.Cross != "":
			open[i].env.Steps = append(open[i].env.Steps, Step{env.Shard, env.Rec})
		case i >= 0:
			open[i].env.Lease = env.Lease
			emit(open[i].env)
			open = slices.Delete(open, i, i+1)
		default:
			emit(env)
		}
	}
	for _, g := range open {
		end(g)
	}
	return out
}

// touches reports whether env operates on shard.
func touches(env *Envelope, shard int) bool {
	switch {
	case env.Rec != nil:
		return env.Shard == shard
	case env.IsBorderScale:
		return true
	case env.Lease != nil && (env.Lease.A == shard || env.Lease.B == shard):
		return true
	}
	return slices.ContainsFunc(env.Steps, func(st Step) bool { return st.Shard == shard })
}

// halfDelta is how a record changes the count of resident halves.
func halfDelta(rec *core.Record) int {
	switch {
	case rec.Op == core.OpAdmit && rec.App != nil:
		return 1
	case rec.Op == core.OpRemove:
		return -1
	}
	return 0
}
