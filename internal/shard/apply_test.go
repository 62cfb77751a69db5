package shard

import (
	"encoding/json"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/placement"
)

// TestApplyPrefixReconcileMatchesRebuild is the crash-point property of
// the hot replicated state machine. A leader may crash after any
// envelope of a cross-region operation, so every prefix of a journaled
// run is a state a follower can be promoted in. A router fed the prefix
// through Apply, then reconciled with a recording hook (what a new
// leader does before its first write), must equal Rebuild of the prefix
// followed by the withdrawals it recorded — which is what the followers
// replay. So must a node that Replays the torn prefix, from the log or
// from a snapshot of it, and then applies those withdrawals: that is a
// replicated node restoring before the new leader's withdrawal arrives.
func TestApplyPrefixReconcileMatchesRebuild(t *testing.T) {
	net := dumbbellNet(t, 100)
	r := twoShardRouter(t, net)
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)

	gr := core.QoS{Class: core.GuaranteedRate, MinRate: 0.1, MinRateAvailability: 0.5, MaxPaths: 1}
	be := core.QoS{Class: core.BestEffort, Priority: 1, Availability: 0.5, MaxPaths: 1}
	var bridge placement.Element
	for l := 0; l < net.NumLinks(); l++ {
		if net.Link(network.LinkID(l)).Name == "bridge" {
			bridge = placement.LinkElement(net, network.LinkID(l))
		}
	}
	for _, a := range []struct {
		name, from, to string
		qos            core.QoS
	}{
		{"inA", "a0", "a1", gr},
		{"c2", "a0", "b1", be},
		{"inB", "b0", "b1", be},
		{"c3", "a0", "b1", be},
		{"c1", "a0", "b1", gr}, // a reservation leases the rest of the bridge
	} {
		if _, err := r.Submit(pipelineApp(t, a.name, net, a.from, a.to, 2, a.qos), nil); err != nil {
			t.Fatalf("submit %s: %v", a.name, err)
		}
	}
	if err := r.Remove("c2", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyFluctuation(core.ElementScale{bridge: 0.5}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Repair("c1", nil); err != nil {
		t.Fatalf("repair c1: %v", err)
	}
	if err := r.Remove("inA", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("c3", nil); err != nil {
		t.Fatal(err)
	}

	// Every Apply and Rebuild decodes its own copy of the stream, as a
	// follower and a recovering node each read their own log.
	log, err := json.Marshal(tape.envs)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(n int, tail []*Envelope) []*Envelope {
		var envs []*Envelope
		if err := json.Unmarshal(log, &envs); err != nil {
			t.Fatal(err)
		}
		return append(envs[:n], tail...)
	}
	applied := func(envs []*Envelope) *Router {
		r, err := New(net, 2, newCtlFactory(core.WithRandSeed(1)))
		if err != nil {
			t.Fatal(err)
		}
		for i, env := range envs {
			if err := r.Apply(env); err != nil {
				t.Fatalf("apply envelope %d: %v", i, err)
			}
		}
		return r
	}
	withdrawn := 0
	for n := 0; n <= len(tape.envs); n++ {
		hot := applied(stream(n, nil))
		torn := routerStateJSON(t, hot)
		rec := &journalTape{}
		hot.SetEnvelopeHook(rec.hook)
		if err := hot.Reconcile(); err != nil {
			t.Fatalf("prefix %d: reconcile: %v", n, err)
		}
		withdrawn += len(rec.envs)
		withdrawals, err := json.Marshal(rec.envs)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Rebuild(net, 2, nil, stream(n, rec.envs), shardRebuilder(core.WithRandSeed(1)))
		if err != nil {
			t.Fatalf("prefix %d: rebuild: %v", n, err)
		}
		want := routerStateJSON(t, cold)
		if got := routerStateJSON(t, hot); got != want {
			t.Fatalf("prefix %d of %d: new leader differs from the rebuilt log\nleader:  %s\nrebuilt: %s", n, len(tape.envs), got, want)
		}
		// A follower only applies, never reconciles: the withdrawals the
		// leader proposed must be all it takes.
		if got := routerStateJSON(t, applied(stream(n, rec.envs))); got != want {
			t.Fatalf("prefix %d of %d: follower differs from the rebuilt log\nfollower: %s\nrebuilt:  %s", n, len(tape.envs), got, want)
		}
		// A node that restores — the old leader replaying its own log on
		// restart, or a follower loading its snapshot of the torn prefix —
		// must still hold the torn half when the withdrawal arrives.
		var snap RouterSnapshot
		if err := json.Unmarshal([]byte(torn), &snap); err != nil {
			t.Fatal(err)
		}
		for _, from := range []struct {
			name string
			snap *RouterSnapshot
			envs []*Envelope
		}{{"log", nil, stream(n, nil)}, {"snapshot", &snap, nil}} {
			restored, err := Replay(net, 2, from.snap, from.envs, shardRebuilder(core.WithRandSeed(1)))
			if err != nil {
				t.Fatalf("prefix %d: replay from %s: %v", n, from.name, err)
			}
			var tail []*Envelope
			if err := json.Unmarshal(withdrawals, &tail); err != nil {
				t.Fatal(err)
			}
			for i, env := range tail {
				if err := restored.Apply(env); err != nil {
					t.Fatalf("prefix %d: node restored from its %s: apply withdrawal %d: %v", n, from.name, i, err)
				}
			}
			if got := routerStateJSON(t, restored); got != want {
				t.Fatalf("prefix %d of %d: node restored from its %s differs from the rebuilt log\nrestored: %s\nrebuilt:  %s", n, len(tape.envs), from.name, got, want)
			}
		}
	}
	if withdrawn == 0 {
		t.Fatal("no prefix tore a cross-region operation; the stream exercises nothing")
	}
}
