package shard

import (
	"encoding/json"
	"fmt"
	"sort"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
)

// Durability of the sharded control plane. Every shard scheduler's
// journal record is wrapped in an Envelope tagging its shard (and, for
// cross-region halves, the logical application), and the router's own
// border mutations — lease acquire/release/renew and border-link
// fluctuation scales — are journaled as lease/border envelopes in the
// same stream. Apply applies one committed envelope to a live router,
// which keeps a replication follower hot; Replay folds Apply over a
// journal; Reconcile withdraws cross-region halves that a crash left
// without their sibling or lease (the sharded analogue of a torn
// multi-record operation), and Rebuild is Replay then Reconcile.

// EnvelopeHook persists one Envelope; it must be safe for concurrent
// calls (shards commit under their own locks).
type EnvelopeHook func(*Envelope) error

// Envelope is one journal entry of a sharded deployment.
type Envelope struct {
	// Shard is the region of a scheduler record; -1 for router-level
	// (lease / border-scale) envelopes.
	Shard int `json:"shard"`
	// Cross is the logical application name when Rec belongs to a
	// cross-region half.
	Cross string `json:"cross,omitempty"`
	// Rec is the wrapped scheduler record (shard envelopes).
	Rec *core.Record `json:"rec,omitempty"`
	// Lease is a border-lease mutation (router envelopes).
	Lease *LeaseRecord `json:"lease,omitempty"`
	// BorderScale, when non-nil, replaces the border-link fluctuation
	// scales (absent links return to nominal).
	BorderScale map[int]float64 `json:"borderScale,omitempty"`
	// IsBorderScale distinguishes an empty scale map (restore all
	// borders to nominal) from a non-scale envelope.
	IsBorderScale bool `json:"isBorderScale,omitempty"`
	// Span is the span of the shard operation that committed Rec, so a
	// hook can parent its journal append under it. It is not journaled.
	Span *obs.Span `json:"-"`
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

// DecodeEnvelope decodes one entry of a k-region journal.
func DecodeEnvelope(k int, data []byte) (*Envelope, error) {
	env := &Envelope{}
	var err error
	if k == 1 {
		env.Rec = &core.Record{}
		err = json.Unmarshal(data, env.Rec)
	} else {
		err = json.Unmarshal(data, env)
	}
	if err != nil {
		return nil, err
	}
	return env, nil
}

// DecodeLog decodes a k-region journal: its snapshot (nil when snapBytes
// is empty) and the entries after it.
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
// each shard scheduler's commit hook is wrapped to emit tagged
// envelopes, and the router's own border mutations are journaled
// through the same hook. Install before serving traffic.
func (r *Router) SetEnvelopeHook(h EnvelopeHook) {
	r.commit = h
	for i, s := range r.slots {
		if h == nil {
			s.ctl.SetCommitHook(nil)
			continue
		}
		s.ctl.SetCommitHook(func(rec *core.Record) error {
			return h(&Envelope{Shard: i, Cross: s.cross, Rec: rec, Span: s.ctl.OpSpan()})
		})
	}
}

func leaseRecordOf(op string, c *crossApp) *LeaseRecord {
	return &LeaseRecord{
		Op:           op,
		App:          c.logical,
		Class:        c.class,
		A:            c.a,
		B:            c.b,
		Border:       c.border,
		Bits:         c.bits,
		Rate:         c.rate,
		Avail:        c.avail,
		Target:       c.target,
		LinkFailProb: c.linkFailProb,
	}
}

// commitLease journals one lease mutation; a nil hook is free.
func (r *Router) commitLease(op string, c *crossApp) error {
	if r.commit == nil {
		return nil
	}
	if err := r.commit(&Envelope{Shard: -1, Lease: leaseRecordOf(op, c)}); err != nil {
		return fmt.Errorf("%w: %v", core.ErrDurability, err)
	}
	return nil
}

// commitBorderScale journals the border-link fluctuation scales. A
// deployment without border links has no border state to journal.
func (r *Router) commitBorderScale(border map[int]float64) error {
	if r.commit == nil || len(r.part.Border) == 0 {
		return nil
	}
	env := &Envelope{Shard: -1, BorderScale: border, IsBorderScale: true}
	if err := r.commit(env); err != nil {
		return fmt.Errorf("%w: %v", core.ErrDurability, err)
	}
	return nil
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
		ss, err := s.ctl.ExportSnapshot()
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
		snap.Leases = append(snap.Leases, *leaseRecordOf("", r.apps[name].cross))
	}
	if len(r.borderScale) > 0 {
		snap.BorderScale = make(map[int]float64, len(r.borderScale))
		for i, f := range r.borderScale {
			snap.BorderScale[i] = f
		}
	}
	return write(snap)
}

// Apply applies one committed envelope: a shard record through that
// shard's ApplyCommitted under its lock, a lease or border-scale
// envelope into the lease table and registry. A replication follower
// stays hot through it and Rebuild folds it over a journal. It commits
// nothing and does not reconcile: a cross-region operation spans
// several envelopes, so a prefix of the stream may hold a torn one.
func (r *Router) Apply(env *Envelope) error {
	switch {
	case env.Rec != nil:
		if env.Shard < 0 || env.Shard >= len(r.slots) {
			return fmt.Errorf("shard: envelope for unknown shard %d", env.Shard)
		}
		s := r.slots[env.Shard]
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.ctl.ApplyCommitted(env.Rec)
	case env.Lease != nil:
		r.borderMu.Lock()
		defer r.borderMu.Unlock()
		r.regMu.Lock()
		defer r.regMu.Unlock()
		r.applyLeaseLocked(env.Lease)
	case env.IsBorderScale:
		r.borderMu.Lock()
		defer r.borderMu.Unlock()
		r.applyScaleLocked(env.BorderScale)
	}
	return nil
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
	r.apps[lr.App] = &appEntry{shard: lr.A, cross: &crossApp{
		logical:      lr.App,
		class:        lr.Class,
		a:            lr.A,
		b:            lr.B,
		border:       lr.Border,
		bits:         lr.Bits,
		rate:         lr.Rate,
		avail:        lr.Avail,
		target:       lr.Target,
		linkFailProb: lr.LinkFailProb,
	}}
}

// applyScaleLocked replaces the border-link scales; links absent from
// border return to nominal, and indices outside the partition are
// ignored. The caller holds borderMu.
func (r *Router) applyScaleLocked(border map[int]float64) {
	for i := range r.part.Border {
		r.leases.SetScale(i, 1)
	}
	r.borderScale = map[int]float64{}
	for i, f := range border {
		if i >= 0 && i < len(r.part.Border) {
			r.leases.SetScale(i, f)
			r.borderScale[i] = f
		}
	}
}

// ShardRebuilder reconstructs one region's scheduler from its snapshot
// and replayed records (typically a closure over core.Rebuild with the
// deployment's options).
type ShardRebuilder func(sub *network.Network, region int, snap *core.Snapshot, recs []*core.Record) (core.Control, error)

// Replay reconstructs a Router from a snapshot and the envelopes
// journaled after it: rebuildShard restores each region's scheduler
// from its snapshot, the snapshot's border state applies, and every
// envelope applies in order. It does not reconcile: a replicated node
// restores through it and must still hold a torn half when the leader's
// withdrawal arrives through the log. The partition is recomputed.
func Replay(net *network.Network, k int, snap *RouterSnapshot, envs []*Envelope, rebuildShard ShardRebuilder) (*Router, error) {
	if snap == nil {
		snap = &RouterSnapshot{Shards: make([]*core.Snapshot, k)}
	}
	if len(snap.Shards) != k {
		return nil, fmt.Errorf("shard: snapshot has %d shards, deployment has %d", len(snap.Shards), k)
	}
	r, err := build(net, k, func(reg *Region) (core.Control, error) {
		return rebuildShard(reg.View.Net, reg.Index, snap.Shards[reg.Index], nil)
	})
	if err != nil {
		return nil, err
	}
	// r is not shared yet: the snapshot's border state applies unlocked.
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

// Rebuild is Replay, then Reconcile with no hook armed.
func Rebuild(net *network.Network, k int, snap *RouterSnapshot, envs []*Envelope, rebuildShard ShardRebuilder) (*Router, error) {
	r, err := Replay(net, k, snap, envs, rebuildShard)
	if err != nil {
		return nil, err
	}
	// With no hook armed, Reconcile commits nothing and cannot fail.
	_ = r.Reconcile()
	return r, nil
}

// Reconcile withdraws the debris a crash can leave between the journal
// records of one cross-region operation — a half admitted without its
// sibling or lease, a lease whose half is missing — and rebuilds the
// registry's intra-region entries from the shards' residents. It holds
// every lock throughout. Journal recovery and a replicated node that
// becomes leader run it with their hook armed, so each withdrawal
// commits like any other remove and replaying the log reaches the
// reconciled state. Withdrawals run in name order, so every run over
// the same state commits the same stream.
func (r *Router) Reconcile() error {
	for _, s := range r.slots {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	r.borderMu.Lock()
	defer r.borderMu.Unlock()
	r.regMu.Lock()
	defer r.regMu.Unlock()

	present := make([]map[string]bool, len(r.slots))
	for i, s := range r.slots {
		present[i] = map[string]bool{}
		for _, pa := range append(s.ctl.GRApps(), s.ctl.BEApps()...) {
			present[i][pa.App.Name] = true
		}
	}
	var firstErr error
	withdraw := func(logical string, region int) {
		s, half := r.slots[region], halfName(logical, region)
		s.cross = logical
		if err := s.ctl.Remove(half); err != nil && firstErr == nil {
			firstErr = err
		}
		s.cross = ""
		present[region][half] = false
	}
	// Torn cross apps: lease present, a half missing → withdraw the rest.
	var cross []string
	for name, e := range r.apps {
		switch {
		case e.cross != nil:
			cross = append(cross, name)
		case !e.claimed:
			delete(r.apps, name) // re-registered from the residents below
		}
	}
	sort.Strings(cross)
	for _, name := range cross {
		c := r.apps[name].cross
		okA := present[c.a][halfName(name, c.a)]
		okB := present[c.b][halfName(name, c.b)]
		if okA && okB {
			continue
		}
		if okA {
			withdraw(name, c.a)
		}
		if okB {
			withdraw(name, c.b)
		}
		_, _ = r.leases.Release(name) // cannot fail: a registered cross app holds a lease
		if err := r.commitLease(leaseRelease, c); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(r.apps, name)
	}
	// Orphan halves (admitted, no lease record survived) go; every other
	// resident is an intra-region app.
	for i := range r.slots {
		var names []string
		for name, ok := range present[i] {
			if ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			logical, region, isHalf := logicalOfHalf(name)
			if len(r.slots) > 1 && isHalf && region == i {
				if e, ok := r.apps[logical]; !ok || e.cross == nil {
					withdraw(logical, i)
				}
				continue
			}
			r.apps[name] = &appEntry{shard: i}
		}
	}
	return firstErr
}
