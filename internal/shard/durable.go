package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
)

// Durability of the sharded control plane: one router operation, one
// journal entry. An intra-region operation journals its shard's record
// in an Envelope tagging the shard. An operation that touches two shards
// or the border — a cross-region submit, remove or repair, a fluctuation
// over several regions — commits every record its shards produce, with
// its lease or border-scale mutation, as one Envelope before it releases
// its locks. Apply applies one envelope whole, keeping a replication
// follower hot, and Replay folds it over a journal. No prefix of the log
// holds part of an operation, so recovery never withdraws anything.

// EnvelopeHook persists one Envelope; it must be safe for concurrent
// calls (shards commit under their own locks).
type EnvelopeHook func(*Envelope) error

// Envelope is one journal entry of a sharded deployment: one router
// operation.
type Envelope struct {
	// Shard is the region of a single-shard operation's record; -1 for an
	// operation that touches several shards or the border.
	Shard int `json:"shard"`
	// Cross tagged a half's record in a retired format, one entry per
	// half; nothing sets it, and DecodeEnvelope refuses an entry that does.
	Cross string `json:"cross,omitempty"`
	// Rec is the record of a single-shard operation.
	Rec *core.Record `json:"rec,omitempty"`
	// Steps are the records of a multi-shard operation, in commit order
	// (rollbacks and trims included, so replay repeats them).
	Steps []Step `json:"steps,omitempty"`
	// Lease is the operation's border-lease mutation.
	Lease *LeaseRecord `json:"lease,omitempty"`
	// BorderScale, when non-nil, replaces the border-link fluctuation
	// scales (absent links return to nominal).
	BorderScale map[int]float64 `json:"borderScale,omitempty"`
	// IsBorderScale distinguishes an empty scale map (restore all
	// borders to nominal) from an envelope without one.
	IsBorderScale bool `json:"isBorderScale,omitempty"`
	// Span is the span of the operation that committed the envelope, so a
	// hook can parent its journal append under it. It is not journaled.
	Span *obs.Span `json:"-"`
}

// Step is one shard scheduler record of a multi-shard operation.
type Step struct {
	Shard int          `json:"shard"`
	Rec   *core.Record `json:"rec"`
}

// Lease operation names.
const (
	leaseAcquire = "acquire"
	leaseRelease = "release"
	leaseRenew   = "renew"
)

// LeaseRecord journals one border-lease mutation; it carries the full
// cross-app metadata so recovery can rebuild the router's registry.
type LeaseRecord struct {
	Op           string     `json:"op"` // acquire, release, renew
	App          string     `json:"app"`
	Class        core.Class `json:"class"`
	A            int        `json:"a"`
	B            int        `json:"b"`
	Border       int        `json:"border"`
	Bits         float64    `json:"bits"`
	Rate         float64    `json:"rate"`
	Avail        float64    `json:"avail"`
	Target       float64    `json:"target"`
	LinkFailProb float64    `json:"linkFailProb"`
}

// RouterSnapshot captures the whole sharded control plane: one scheduler
// snapshot per region plus the border state.
type RouterSnapshot struct {
	Shards []*core.Snapshot `json:"shards"`
	// Leases are the granted leases with their cross-app metadata
	// (Op is empty), sorted by application name.
	Leases []LeaseRecord `json:"leases,omitempty"`
	// BorderScale is the current border-link fluctuation scale.
	BorderScale map[int]float64 `json:"borderScale,omitempty"`
}

// The journal codec. A one-region deployment journals each envelope as
// its bare core.Record and each snapshot as its bare core.Snapshot: that
// is the format the unsharded server wrote before the router became the
// only host, so its journals recover unchanged. One region has no border
// links, so every envelope it commits is a shard-0 record. More regions
// journal the Envelope and the RouterSnapshot whole.

// EncodeEnvelope returns what a k-region journal holds for env.
func EncodeEnvelope(k int, env *Envelope) any {
	if k == 1 {
		return env.Rec
	}
	return env
}

// EncodeSnapshot returns what a k-region journal holds for snap.
func EncodeSnapshot(k int, snap *RouterSnapshot) any {
	if k == 1 {
		return snap.Shards[0]
	}
	return snap
}

// DecodeEnvelope decodes one entry of a k-region journal. It refuses the
// two retired entry formats, which no current binary writes: a
// cross-region half's record tagged with its app, and an "admit" record;
// and a multi-shard step without a record, which nothing can apply.
func DecodeEnvelope(k int, data []byte) (*Envelope, error) {
	env := &Envelope{}
	var err error
	if k == 1 {
		env.Rec = &core.Record{}
		err = json.Unmarshal(data, env.Rec)
	} else {
		err = json.Unmarshal(data, env)
	}
	switch {
	case err != nil:
		return nil, err
	case env.Cross != "":
		return nil, fmt.Errorf("shard: retired journal format: a per-half record of cross-region app %q, not one envelope per operation", env.Cross)
	case env.Rec != nil && env.Rec.Op == "admit", slices.ContainsFunc(env.Steps, func(st Step) bool { return st.Rec != nil && st.Rec.Op == "admit" }):
		return nil, errors.New(`shard: retired journal format: an "admit" record, not a "batch" of one`)
	case slices.ContainsFunc(env.Steps, func(st Step) bool { return st.Rec == nil }):
		return nil, errors.New("shard: a multi-shard step carries no record")
	}
	return env, nil
}

// DecodeLog decodes a k-region journal: its snapshot (nil when snapBytes
// is empty) and the entries after it. A retired entry format refuses the
// whole log before anything applies.
func DecodeLog(k int, snapBytes []byte, entries [][]byte) (*RouterSnapshot, []*Envelope, error) {
	var snap *RouterSnapshot
	if len(snapBytes) > 0 {
		snap = &RouterSnapshot{}
		var err error
		if k == 1 {
			snap.Shards = []*core.Snapshot{{}}
			err = json.Unmarshal(snapBytes, snap.Shards[0])
		} else {
			err = json.Unmarshal(snapBytes, snap)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("decode snapshot: %w", err)
		}
	}
	envs := make([]*Envelope, len(entries))
	for i, data := range entries {
		env, err := DecodeEnvelope(k, data)
		if err != nil {
			return nil, nil, fmt.Errorf("decode record %d: %w", i, err)
		}
		envs[i] = env
	}
	return snap, envs, nil
}

// SetEnvelopeHook installs (or clears, with nil) the durability hook:
// each shard scheduler's commit hook is wrapped to emit a single-shard
// envelope, or, while a multi-shard operation holds the shard, to append
// its record to that operation's envelope. Install before serving
// traffic.
func (r *Router) SetEnvelopeHook(h EnvelopeHook) {
	r.commit = h
	for i, s := range r.slots {
		if h == nil {
			s.sched.SetCommitHook(nil)
			continue
		}
		s.sched.SetCommitHook(func(rec *core.Record) error {
			if s.op != nil {
				s.op.Steps = append(s.op.Steps, Step{Shard: i, Rec: rec})
				return nil
			}
			return h(&Envelope{Shard: i, Rec: rec, Span: s.sched.OpSpan()})
		})
	}
}

// atomically runs op with slots (ascending regions) locked and, when it
// spans several, their records buffered into one envelope, to which op
// adds its lease or border-scale mutation. The envelope commits before
// the locks are released, so no reader and no prefix of the log sees
// part of op. A commit failure is the operation's error, wrapped in
// ErrDurability; an operation that recorded nothing commits nothing. A
// lone slot (a one-region fluctuation) needs no buffer: its record is
// the operation's envelope.
func (r *Router) atomically(sp *obs.Span, slots []*slot, op func(env *Envelope) error) error {
	env := &Envelope{Shard: -1, Span: sp}
	for _, s := range slots {
		s.lock(sp)
		defer s.unlock()
		if len(slots) > 1 {
			s.op = env
		}
	}
	err := op(env)
	for _, s := range slots {
		s.op = nil
	}
	if r.commit != nil && (len(env.Steps) > 0 || env.Lease != nil || env.IsBorderScale) {
		if cerr := r.commit(env); cerr != nil {
			return fmt.Errorf("%w: %v", core.ErrDurability, cerr)
		}
	}
	return err
}

// with returns a copy of lr that journals op.
func (lr LeaseRecord) with(op string) *LeaseRecord {
	lr.Op = op
	return &lr
}

// ExportSnapshot captures a consistent snapshot of every shard and the
// border state, holding all locks for the duration.
func (r *Router) ExportSnapshot() (*RouterSnapshot, error) {
	var snap *RouterSnapshot
	err := r.SnapshotWith(func(s *RouterSnapshot) error {
		snap = s
		return nil
	})
	return snap, err
}

// SnapshotWith exports a consistent snapshot and passes it to write
// while still holding every lock, so nothing can commit between the
// export and the write landing. Periodic journal snapshotting needs
// exactly this: a snapshot exported and then written later could miss
// operations journaled in between, and replay from it would lose them.
// write must not call back into the Router.
func (r *Router) SnapshotWith(write func(*RouterSnapshot) error) error {
	for _, s := range r.slots {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	r.borderMu.Lock()
	defer r.borderMu.Unlock()
	r.regMu.Lock()
	defer r.regMu.Unlock()

	snap := &RouterSnapshot{}
	for _, s := range r.slots {
		ss, err := s.sched.ExportSnapshot()
		if err != nil {
			return err
		}
		snap.Shards = append(snap.Shards, ss)
	}
	var names []string
	for name, e := range r.apps {
		if e.cross != nil && !e.claimed {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		snap.Leases = append(snap.Leases, *r.apps[name].cross)
	}
	if len(r.borderScale) > 0 {
		snap.BorderScale = make(map[int]float64, len(r.borderScale))
		for i, f := range r.borderScale {
			snap.BorderScale[i] = f
		}
	}
	return write(snap)
}

// Apply applies one committed envelope whole: every shard record through
// its shard's ApplyCommitted, then the lease or border-scale mutation,
// holding the locks the live operation held (shards in ascending region
// order, then the border and the registry). A single-shard record also
// folds into the name registry, so the registry is a fold of the log
// like everything else. A replication follower stays hot through Apply
// and Replay folds it over a journal. It commits nothing.
func (r *Router) Apply(env *Envelope) error {
	if err := r.checkBorderScale(env.BorderScale); err != nil {
		return err
	}
	steps := env.Steps
	if env.Rec != nil {
		steps = []Step{{Shard: env.Shard, Rec: env.Rec}}
	}
	held := make([]bool, len(r.slots))
	for _, st := range steps {
		if st.Shard < 0 || st.Shard >= len(r.slots) {
			return fmt.Errorf("shard: envelope for unknown shard %d", st.Shard)
		}
		if st.Rec == nil {
			return fmt.Errorf("shard: step for shard %d carries no record", st.Shard)
		}
		held[st.Shard] = true
	}
	for i, s := range r.slots {
		if held[i] {
			s.mu.Lock()
			defer s.mu.Unlock()
		}
	}
	for _, st := range steps {
		if err := r.slots[st.Shard].sched.ApplyCommitted(st.Rec); err != nil {
			return err
		}
	}
	r.borderMu.Lock()
	defer r.borderMu.Unlock()
	r.regMu.Lock()
	defer r.regMu.Unlock()
	switch {
	case env.Rec != nil:
		r.registerLocked(env.Shard, env.Rec)
	case env.Lease != nil:
		r.applyLeaseLocked(env.Lease)
	}
	if env.IsBorderScale {
		r.applyScaleLocked(env.BorderScale)
	}
	return nil
}

// registerLocked folds one intra-region record into the name registry,
// as the live path's settle and unclaim leave it. The caller holds regMu.
func (r *Router) registerLocked(shard int, rec *core.Record) {
	if rec.Op == core.OpRemove {
		delete(r.apps, rec.Name)
	}
	for _, e := range rec.Batch {
		if e.App != nil {
			r.apps[e.Name] = &appEntry{shard: shard}
		}
	}
}

// applyLeaseLocked applies one lease mutation, or a snapshot's lease (Op
// empty), to the lease table and the registry. It applies recorded
// facts and does not re-validate capacity: a lease granted before a
// degrading fluctuation stays granted, exactly like the live table. The
// caller holds borderMu and regMu.
func (r *Router) applyLeaseLocked(lr *LeaseRecord) {
	// A renewal replaces the app's lease; an error only says it held none.
	_, _ = r.leases.Release(lr.App)
	if lr.Op == leaseRelease {
		delete(r.apps, lr.App)
		return
	}
	r.leases.restore(&Lease{App: lr.App, Border: lr.Border, Bits: lr.Bits, Rate: lr.Rate})
	r.apps[lr.App] = &appEntry{shard: lr.A, cross: lr.with("")}
}

// checkBorderScale holds a border scale to the live path's rule: each
// index names a border link, whose factor core.ElementScale.Validate
// accepts.
func (r *Router) checkBorderScale(border map[int]float64) error {
	scale := core.ElementScale{}
	for i, f := range border {
		if i < 0 || i >= len(r.part.Border) {
			return fmt.Errorf("shard: unknown border link %d in scale", i)
		}
		scale[placement.LinkElement(r.part.Parent, r.part.Border[i].Link)] = f
	}
	return scale.Validate(r.part.Parent)
}

// applyScaleLocked replaces the border-link scales, which
// checkBorderScale has passed; links absent from border return to
// nominal. The caller holds borderMu.
func (r *Router) applyScaleLocked(border map[int]float64) {
	for i := range r.part.Border {
		r.leases.SetScale(i, 1)
	}
	r.borderScale = map[int]float64{}
	for i, f := range border {
		r.leases.SetScale(i, f)
		r.borderScale[i] = f
	}
}

// ShardRebuilder reconstructs one region's scheduler from its snapshot
// (typically a closure over core.Rebuild with the deployment's options).
type ShardRebuilder func(sub *network.Network, region int, snap *core.Snapshot) (*core.Scheduler, error)

// Replay reconstructs a Router from a snapshot and the envelopes
// journaled after it: rebuildShard restores each region's scheduler
// from its snapshot, the registry is seeded from the snapshot's
// residents and leases, its border state applies, and every envelope
// applies in order. The partition is recomputed.
func Replay(net *network.Network, k int, snap *RouterSnapshot, envs []*Envelope, rebuildShard ShardRebuilder) (*Router, error) {
	if snap == nil {
		snap = &RouterSnapshot{Shards: make([]*core.Snapshot, max(k, 0))}
	}
	// A k below 1 is refused by Partition, in build.
	if k > 0 && len(snap.Shards) != k {
		return nil, fmt.Errorf("shard: snapshot has %d shards, deployment has %d", len(snap.Shards), k)
	}
	r, err := build(net, k, func(reg *Region) (*core.Scheduler, error) {
		return rebuildShard(reg.View.Net, reg.Index, snap.Shards[reg.Index])
	})
	if err != nil {
		return nil, err
	}
	if err := r.checkBorderScale(snap.BorderScale); err != nil {
		return nil, fmt.Errorf("shard: snapshot: %w", err)
	}
	// r is not shared yet: the snapshot's registry and border state apply
	// unlocked. Every resident is an intra-region app except the halves,
	// which only a sharded deployment names (it refuses halfSep in names).
	for i, s := range r.slots {
		for _, pa := range append(s.sched.GRApps(), s.sched.BEApps()...) {
			if k == 1 || !strings.Contains(pa.App.Name, halfSep) {
				r.apps[pa.App.Name] = &appEntry{shard: i}
			}
		}
	}
	for i := range snap.Leases {
		r.applyLeaseLocked(&snap.Leases[i])
	}
	if snap.BorderScale != nil {
		r.applyScaleLocked(snap.BorderScale)
	}
	for i, env := range envs {
		if err := r.Apply(env); err != nil {
			return nil, fmt.Errorf("shard: replay envelope %d: %w", i, err)
		}
	}
	return r, nil
}

// Rebuild is Replay for a rebuilder that also takes records (given nil).
//
// Deprecated: use Replay; only benchmark/probe.go still calls it.
func Rebuild(net *network.Network, k int, snap *RouterSnapshot, envs []*Envelope, rebuildShard func(*network.Network, int, *core.Snapshot, []*core.Record) (*core.Scheduler, error)) (*Router, error) {
	return Replay(net, k, snap, envs, func(sub *network.Network, region int, ss *core.Snapshot) (*core.Scheduler, error) {
		return rebuildShard(sub, region, ss, nil)
	})
}
