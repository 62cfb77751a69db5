package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
)

// lopsidedNet is a dumbbell whose region B is narrow, so a cross-region
// app's B half gets less than its A half (a trim) and, once lb is
// reserved, nothing at all (a rollback):
//
//	a0 --10000-- a1 ==100== b0 --30-- b1
func lopsidedNet(t *testing.T) *network.Network {
	t.Helper()
	b := network.NewBuilder("lopsided")
	caps := resource.Vector{resource.CPU: 1000}
	a0 := b.AddNCP("a0", caps, 0.01)
	a1 := b.AddNCP("a1", caps, 0.01)
	b0 := b.AddNCP("b0", caps, 0.01)
	b1 := b.AddNCP("b1", caps, 0.01)
	b.AddLink("la", a0, a1, 10000, 0.01)
	b.AddLink("bridge", a1, b0, 100, 0.02)
	b.AddLink("lb", b0, b1, 30, 0.01)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// runOp is one router operation of mixedOps.
type runOp struct {
	name string
	// want is the envelope a two-region router commits for it: "plain"
	// (one shard's record), or the lease op ("acquire", "release",
	// "renew"), "steps" (shard records alone) or "scale" of a multi-shard
	// envelope.
	want string
	run  func(r *Router) error
}

// mixedOps exercises every router operation kind on lopsidedNet: intra
// admits and a remove, cross-region admits that place plainly, trim,
// roll back and are rejected, a cross repair that renews and one that
// withdraws, a cross remove, and fluctuations.
func mixedOps(t *testing.T, net *network.Network) []runOp {
	gr := func(min float64) core.QoS {
		return core.QoS{Class: core.GuaranteedRate, MinRate: min, MinRateAvailability: 0.5, MaxPaths: 1}
	}
	be := core.QoS{Class: core.BestEffort, Priority: 1, Availability: 0.5, MaxPaths: 1}
	submit := func(name, from, to string, qos core.QoS) func(*Router) error {
		return func(r *Router) error {
			_, err := r.Submit(pipelineApp(t, name, net, from, to, 2, qos), nil)
			return err
		}
	}
	remove := func(name string) func(*Router) error {
		return func(r *Router) error { return r.Remove(name, nil) }
	}
	repair := func(name string) func(*Router) error {
		return func(r *Router) error {
			_, err := r.Repair(name, nil)
			return err
		}
	}
	var bridge placement.Element
	for l := 0; l < net.NumLinks(); l++ {
		if net.Link(network.LinkID(l)).Name == "bridge" {
			bridge = placement.LinkElement(net, network.LinkID(l))
		}
	}
	squeeze := func(f float64) func(*Router) error {
		return func(r *Router) error {
			_, err := r.ApplyFluctuation(core.ElementScale{bridge: f}, nil)
			return err
		}
	}
	return []runOp{
		{"intra admit", "plain", submit("inA", "a0", "a1", gr(1))},
		{"intra BE admit", "plain", submit("inB", "b0", "b1", be)},
		{"cross admit", "acquire", submit("xp", "a0", "b1", be)},
		{"cross admit, trimmed", "acquire", submit("xt", "a0", "b1", gr(1))},
		{"cross admit, rolled back", "steps", submit("xr", "a0", "b1", gr(1))},
		{"cross admit, rejected", "steps", submit("xj", "a0", "b1", gr(500))},
		{"intra remove", "plain", remove("inA")},
		{"cross repair, renewed", "renew", repair("xt")},
		{"fluctuation", "scale", squeeze(0.5)},
		{"cross remove", "release", remove("xp")},
		{"fluctuation, border dead", "scale", squeeze(0.001)},
		{"cross repair, withdrawn", "release", repair("xt")},
		{"intra admit after", "plain", submit("inC", "a0", "a1", be)},
	}
}

// TestOneEnvelopePerOperation is the tape test of the atomic envelope:
// at k = 2 every operation commits exactly one envelope of the expected
// shape, a multi-shard one carrying every record its shards produced; at
// k = 1 every operation commits at most one plain record, which the
// codec journals as the bare core.Record of the unsharded format.
func TestOneEnvelopePerOperation(t *testing.T) {
	net := lopsidedNet(t)
	for _, k := range []int{1, 2} {
		r, err := New(net, k, newCtlFactory())
		if err != nil {
			t.Fatal(err)
		}
		tape := &journalTape{}
		r.SetEnvelopeHook(tape.hook)
		for _, op := range mixedOps(t, net) {
			before := len(tape.envs)
			err := op.run(r)
			got := tape.envs[before:]
			if k == 1 {
				if len(got) > 1 || len(got) == 1 && (got[0].Rec == nil || got[0].Steps != nil || got[0].Shard != 0) {
					t.Fatalf("k=1 %s: committed %+v, want at most one plain record", op.name, got)
				}
				continue
			}
			if err != nil && !errors.Is(err, core.ErrRejected) {
				t.Fatalf("%s: %v", op.name, err)
			}
			if len(got) != 1 {
				t.Fatalf("%s: committed %d envelopes, want 1", op.name, len(got))
			}
			if shape := envelopeShape(got[0]); shape != op.want {
				t.Fatalf("%s: committed a %q envelope, want %q: %s", op.name, shape, op.want, mustJSON(t, got[0]))
			}
			if op.name == "cross admit, trimmed" && !hasOp(got[0], core.OpRemove) {
				t.Fatalf("%s: no trim in %s", op.name, mustJSON(t, got[0]))
			}
			if op.name == "cross admit, rolled back" && !hasOp(got[0], core.OpRemove) {
				t.Fatalf("%s: no rollback in %s", op.name, mustJSON(t, got[0]))
			}
		}
	}
}

func envelopeShape(env *Envelope) string {
	switch {
	case env.Rec != nil && env.Shard >= 0 && env.Steps == nil:
		return "plain"
	case env.Shard != -1 || len(env.Steps) == 0:
		return "malformed"
	case env.Lease != nil:
		return env.Lease.Op
	case env.IsBorderScale:
		return "scale"
	}
	return "steps"
}

func hasOp(env *Envelope, op string) bool {
	return slices.ContainsFunc(env.Steps, func(st Step) bool { return st.Rec.Op == op })
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// registryOf renders the router's name registry.
func registryOf(r *Router) string {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	var lines []string
	for name, e := range r.apps {
		line := fmt.Sprintf("%s→%d claimed=%v", name, e.shard, e.claimed)
		if e.cross != nil {
			line += fmt.Sprintf(" %+v", *e.cross)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkWhole asserts that no half is resident without its sibling and
// lease, and that every resident routes by its logical name.
func checkWhole(t *testing.T, r *Router, at string) {
	t.Helper()
	for i := range r.slots {
		for _, pa := range append(r.Shard(i).GRApps(), r.Shard(i).BEApps()...) {
			logical, region, half := logicalOfHalf(pa.App.Name)
			if !half {
				if shard, ok := r.ShardOf(pa.App.Name); !ok || shard != i {
					t.Fatalf("%s: resident %q of shard %d routes to %d, %v", at, pa.App.Name, i, shard, ok)
				}
				continue
			}
			e, err := r.lookup(logical)
			if err != nil || e.cross == nil || r.leases.byApp[logical] == nil || region != i {
				t.Fatalf("%s: half %q in shard %d has no registered, leased app: %v", at, pa.App.Name, i, err)
			}
			sibling := e.cross.A + e.cross.B - region
			if !slices.ContainsFunc(append(r.Shard(sibling).GRApps(), r.Shard(sibling).BEApps()...),
				func(s *core.PlacedApp) bool { return s.App.Name == halfName(logical, sibling) }) {
				t.Fatalf("%s: half %q has no sibling in shard %d", at, pa.App.Name, sibling)
			}
		}
	}
}

// TestEveryPrefixReplaysWhole is the crash-point property of the
// journal and the hot replicated state machine. A leader may crash after
// any envelope, so every prefix of a journaled run is a state some node
// restarts or is promoted in. For every prefix, Replay of it, the Apply
// fold of it (a hot follower) and Replay from a snapshot of it are
// byte-equal, registry included; no half is resident without its sibling
// and lease; and every resident routes by its logical name. The run
// mixes intra and cross-region operations, trims, rollbacks, removes,
// repairs and fluctuations.
func TestEveryPrefixReplaysWhole(t *testing.T) {
	net := lopsidedNet(t)
	live := twoShardRouter(t, net)
	tape := &journalTape{}
	live.SetEnvelopeHook(tape.hook)
	for _, op := range mixedOps(t, net) {
		if err := op.run(live); err != nil && !errors.Is(err, core.ErrRejected) {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	// Every router decodes its own copy of the stream, as a follower and
	// a recovering node each read their own log.
	log := mustJSON(t, tape.envs)
	prefix := func(n int) []*Envelope {
		var envs []*Envelope
		if err := json.Unmarshal([]byte(log), &envs); err != nil {
			t.Fatal(err)
		}
		return envs[:n]
	}
	for n := 0; n <= len(tape.envs); n++ {
		at := fmt.Sprintf("prefix %d of %d", n, len(tape.envs))
		replayed, err := Replay(net, 2, nil, prefix(n), shardRebuilder())
		if err != nil {
			t.Fatalf("%s: replay: %v", at, err)
		}
		hot := twoShardRouter(t, net)
		for i, env := range prefix(n) {
			if err := hot.Apply(env); err != nil {
				t.Fatalf("%s: apply envelope %d: %v", at, i, err)
			}
		}
		var snap RouterSnapshot
		if err := json.Unmarshal([]byte(routerStateJSON(t, hot)), &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := Replay(net, 2, &snap, nil, shardRebuilder())
		if err != nil {
			t.Fatalf("%s: replay from snapshot: %v", at, err)
		}
		want, wantReg := routerStateJSON(t, replayed), registryOf(replayed)
		for _, got := range []struct {
			name string
			r    *Router
		}{{"apply fold", hot}, {"snapshot", restored}} {
			if s := routerStateJSON(t, got.r); s != want {
				t.Fatalf("%s: %s differs from replay\n%s: %s\nreplay: %s", at, got.name, got.name, s, want)
			}
			if reg := registryOf(got.r); reg != wantReg {
				t.Fatalf("%s: %s registry differs from replay\n%s:\n%s\nreplay:\n%s", at, got.name, got.name, reg, wantReg)
			}
		}
		checkWhole(t, replayed, at)
		if n == len(tape.envs) {
			if s, reg := routerStateJSON(t, live), registryOf(live); s != want || reg != wantReg {
				t.Fatalf("replay of the whole log differs from the live router\nlive:   %s\n%s\nreplay: %s\n%s", s, reg, want, wantReg)
			}
		}
	}
}

// TestCrossOperationDurabilityFailure: a cross-region operation has one
// commit point, and its failure is the operation's error. Against a log
// that refuses any envelope carrying a remove, a cross admission whose
// B half is rejected (its rollback removes the A half) and a cross repair
// that withdraws the app fail with ErrDurability, not ErrRejected.
func TestCrossOperationDurabilityFailure(t *testing.T) {
	net := lopsidedNet(t)
	r := twoShardRouter(t, net)
	ops := mixedOps(t, net)
	for _, op := range ops[:4] { // intra admits, the plain and the trimmed cross admit
		if err := op.run(r); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	r.SetEnvelopeHook(func(env *Envelope) error {
		if hasOp(env, core.OpRemove) {
			return errors.New("log refuses removes")
		}
		return nil
	})
	rolledBack := ops[4]
	if err := rolledBack.run(r); !errors.Is(err, core.ErrDurability) {
		t.Fatalf("%s against a failing log: %v, want ErrDurability", rolledBack.name, err)
	}
	if err := ops[10].run(r); err != nil { // border dead: no remove to refuse
		t.Fatalf("%s: %v", ops[10].name, err)
	}
	if _, err := r.Repair("xt", nil); !errors.Is(err, core.ErrDurability) {
		t.Fatalf("withdrawing cross repair against a failing log: %v, want ErrDurability", err)
	}
	if _, err := r.Repair("xt", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("the withdrawn app still routes: %v", err)
	}
}

// TestDecodeLogFoldsLegacyCrossRecords: a journal written when a
// cross-region operation was several envelopes — each half's record
// tagged with its app, then a lease envelope — decodes into one envelope
// per operation. The whole log folds into exactly the envelopes a current
// router commits; a log cut inside a cross-region operation drops that
// operation; and a torn admission a recovery withdrew folds into one
// envelope that leaves nothing resident.
func TestDecodeLogFoldsLegacyCrossRecords(t *testing.T) {
	net := lopsidedNet(t)
	r := twoShardRouter(t, net)
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)
	for _, op := range mixedOps(t, net) {
		if err := op.run(r); err != nil && !errors.Is(err, core.ErrRejected) {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	// split writes envs as a server that journaled each record on its
	// own: a cross-region operation's records tagged with its app, a
	// fluctuation's untagged.
	split := func(envs []*Envelope) []*Envelope {
		var out []*Envelope
		for _, env := range envs {
			if env.Rec != nil {
				out = append(out, env)
				continue
			}
			for _, st := range env.Steps {
				logical, _, _ := logicalOfHalf(st.Rec.Name)
				out = append(out, &Envelope{Shard: st.Shard, Cross: logical, Rec: st.Rec})
			}
			if env.Lease != nil || env.IsBorderScale {
				out = append(out, &Envelope{Shard: -1, Lease: env.Lease, BorderScale: env.BorderScale, IsBorderScale: env.IsBorderScale})
			}
		}
		return out
	}
	// Folding regroups the cross-region operations; an old log's
	// fluctuations stay one record per shard plus a border envelope.
	var want []*Envelope
	for _, env := range tape.envs {
		if env.IsBorderScale {
			want = append(want, split([]*Envelope{env})...)
		} else {
			want = append(want, env)
		}
	}
	if got, want := mustJSON(t, foldLegacy(nil, split(tape.envs))), mustJSON(t, want); got != want {
		t.Fatalf("legacy log folds into\n%s\nwant\n%s", got, want)
	}
	cuts := 0
	for i, env := range tape.envs {
		if env.Rec != nil || env.IsBorderScale {
			continue // a single record, or a fluctuation: nothing to tear
		}
		legacy := split(tape.envs[i : i+1])
		for cut := 1; cut < len(legacy); cut++ {
			torn := append(split(tape.envs[:i]), legacy[:cut]...)
			if got, want := mustJSON(t, foldLegacy(nil, torn)), mustJSON(t, foldLegacy(nil, split(tape.envs[:i]))); got != want {
				t.Fatalf("operation %d cut after %d of %d records folds into\n%s\nwant\n%s", i, cut, len(legacy), got, want)
			}
			cuts++
		}
	}
	if cuts == 0 {
		t.Fatal("no cross-region operation was cut")
	}

	// A torn admission (the first half of xt's) and the withdrawal a
	// recovery journaled for it fold into one envelope.
	i := slices.IndexFunc(tape.envs, func(env *Envelope) bool { return env.Lease != nil && env.Lease.App == "xt" })
	first := split(tape.envs[i : i+1])[0]
	withdrawal := &Envelope{Shard: first.Shard, Cross: "xt", Rec: &core.Record{Op: core.OpRemove, Outcome: "ok", Name: first.Rec.Name}}
	folded := foldLegacy(nil, append(split(tape.envs[:i]), first, withdrawal))
	if last := folded[len(folded)-1]; len(last.Steps) != 2 || last.Lease != nil {
		t.Fatalf("torn admission and its withdrawal fold into %s", mustJSON(t, last))
	}
	replayed, err := Replay(net, 2, nil, folded, shardRebuilder())
	if err != nil {
		t.Fatal(err)
	}
	checkWhole(t, replayed, "withdrawn torn admission")
}
