package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
)

func shardRebuilder(opts ...core.Option) ShardRebuilder {
	return func(sub *network.Network, region int, snap *core.Snapshot, recs []*core.Record) (core.Control, error) {
		return core.Rebuild(sub, snap, recs, opts...)
	}
}

// journalTape records envelopes like a journal would: by value, through
// a JSON round-trip, so replay sees exactly what a file would hold.
type journalTape struct {
	mu   sync.Mutex
	envs []*Envelope
}

func (j *journalTape) hook(env *Envelope) error {
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	var cp Envelope
	if err := json.Unmarshal(b, &cp); err != nil {
		return err
	}
	j.mu.Lock()
	j.envs = append(j.envs, &cp)
	j.mu.Unlock()
	return nil
}

func routerStateJSON(t *testing.T, r *Router) string {
	t.Helper()
	snap, err := r.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRebuildRoundTrip: a mixed intra/cross workload journaled as
// envelopes rebuilds to a byte-identical router snapshot, and the
// rebuilt router keeps serving (remove the cross app, lease freed).
func TestRebuildRoundTrip(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)

	grQoS := core.QoS{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "inA", net, "a0", "a1", 5, grQoS), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pipelineApp(t, "inB", net, "b0", "b1", 5,
		core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1}), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pipelineApp(t, "cross", net, "a0", "b1", 10, grQoS), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pipelineApp(t, "gone", net, "a0", "a1", 5, grQoS), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("gone", nil); err != nil {
		t.Fatal(err)
	}

	r2, err := Rebuild(net, 2, nil, tape.envs, shardRebuilder(core.WithRandSeed(1)))
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if got, want := routerStateJSON(t, r2), routerStateJSON(t, r); got != want {
		t.Fatalf("rebuilt state differs\nlive:    %s\nrebuilt: %s", want, got)
	}
	if r2.Stats().Leases != 1 {
		t.Fatalf("rebuilt leases = %d", r2.Stats().Leases)
	}
	// The rebuilt router still routes by logical name.
	if err := r2.Remove("cross", nil); err != nil {
		t.Fatalf("remove on rebuilt router: %v", err)
	}
	if r2.Stats().Leases != 0 {
		t.Fatal("lease survived removal on the rebuilt router")
	}
	if err := r2.Remove("inA", nil); err != nil {
		t.Fatalf("intra remove on rebuilt router: %v", err)
	}
}

// TestRebuildFromSnapshotAndTail: snapshot mid-stream, replay only the
// tail, same state.
func TestRebuildFromSnapshotAndTail(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)

	grQoS := core.QoS{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "cross", net, "a0", "b1", 10, grQoS), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := r.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	cut := len(tape.envs)
	if _, err := r.Submit(pipelineApp(t, "inA", net, "a0", "a1", 5, grQoS), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyFluctuation(nil, nil); err != nil {
		t.Fatal(err)
	}

	// JSON round-trip the snapshot like a journal file would.
	sb, _ := json.Marshal(snap)
	var snap2 RouterSnapshot
	if err := json.Unmarshal(sb, &snap2); err != nil {
		t.Fatal(err)
	}
	r2, err := Rebuild(net, 2, &snap2, tape.envs[cut:], shardRebuilder(core.WithRandSeed(1)))
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if got, want := routerStateJSON(t, r2), routerStateJSON(t, r); got != want {
		t.Fatalf("snapshot+tail state differs\nlive:    %s\nrebuilt: %s", want, got)
	}
}

// TestRebuildReconcilesTornCross: if the crash loses the lease envelope
// (committed halves, no lease), the rebuilt router withdraws the orphan
// halves; if it loses a half, the lease and sibling go too.
func TestRebuildReconcilesTornCross(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)
	grQoS := core.QoS{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "cross", net, "a0", "b1", 10, grQoS), nil); err != nil {
		t.Fatal(err)
	}

	// Case 1: drop the lease envelope — the halves are orphans.
	var noLease []*Envelope
	for _, env := range tape.envs {
		if env.Lease != nil {
			continue
		}
		noLease = append(noLease, env)
	}
	r2, err := Rebuild(net, 2, nil, noLease, shardRebuilder(core.WithRandSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r2.Shard(0).GRApps()) + len(r2.Shard(1).GRApps()); n != 0 {
		t.Fatalf("orphan halves survived reconcile: %d", n)
	}
	if r2.Stats().Leases != 0 {
		t.Fatal("lease without envelope")
	}
	if err := r2.Remove("cross", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("torn app still routable: %v", err)
	}

	// Case 2: drop one half's admit record — lease + sibling withdrawn.
	var noHalfB []*Envelope
	for _, env := range tape.envs {
		if env.Rec != nil && env.Shard == 1 && env.Cross == "cross" {
			continue
		}
		noHalfB = append(noHalfB, env)
	}
	r3, err := Rebuild(net, 2, nil, noHalfB, shardRebuilder(core.WithRandSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r3.Shard(0).GRApps()) + len(r3.Shard(1).GRApps()); n != 0 {
		t.Fatalf("sibling of a lost half survived: %d", n)
	}
	if r3.Stats().Leases != 0 {
		t.Fatal("lease for a torn cross app survived")
	}
}

// TestConcurrentShardSubmits is the race hammer: goroutines submit,
// remove, and repair intra- and cross-region apps concurrently across
// shards. Run under -race in CI.
func TestConcurrentShardSubmits(t *testing.T) {
	net := dumbbellNet(t, 10000)
	r, err := New(net, 2, newCtlFactory(core.WithRandSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)

	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	ends := [][2]string{{"a0", "a1"}, {"b0", "b1"}, {"a0", "b1"}, {"a1", "b0"}}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				e := ends[(w+i)%len(ends)]
				qos := core.QoS{Class: core.GuaranteedRate, MinRate: 0.5, MinRateAvailability: 0.4, MaxPaths: 1}
				if i%3 == 0 {
					qos = core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1}
				}
				_, err := r.Submit(pipelineApp(t, name, net, e[0], e[1], 2, qos), nil)
				if err != nil {
					if errors.Is(err, core.ErrRejected) {
						continue // capacity exhausted is fine under load
					}
					errc <- fmt.Errorf("%s: submit: %w", name, err)
					return
				}
				switch i % 4 {
				case 1:
					if err := r.Remove(name, nil); err != nil {
						errc <- fmt.Errorf("%s: remove: %w", name, err)
						return
					}
				case 2:
					if qos.Class != core.GuaranteedRate {
						break
					}
					if _, err := r.Repair(name, nil); err != nil && !errors.Is(err, core.ErrRejected) {
						errc <- fmt.Errorf("%s: repair: %w", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The surviving state is internally consistent: every lease has both
	// halves, every registered app resolves.
	st := r.Stats()
	admitted := 0
	for _, s := range st.Shards {
		admitted += s.Admitted
	}
	if admitted == 0 {
		t.Fatal("no apps survived the hammer")
	}
	r2, err := Rebuild(net, 2, nil, tape.envs, shardRebuilder(core.WithRandSeed(1)))
	if err != nil {
		t.Fatalf("rebuild after hammer: %v", err)
	}
	if got, want := routerStateJSON(t, r2), routerStateJSON(t, r); got != want {
		t.Fatal("journal replay diverged from live state after concurrent load")
	}
}

// TestRebuildOntoSharedRegistry: the region schedulers share one metrics
// registry. A router rebuilt onto the registry of the one it replaces (a
// follower materializing, a restore after a failed propose) must leave
// the rate series of exactly its own residents, in every region — each
// rebuilt region retires its predecessor's series and nobody else's.
func TestRebuildOntoSharedRegistry(t *testing.T) {
	net := dumbbellNet(t, 1000)
	reg := obs.NewRegistry()
	r, err := New(net, 2, newCtlFactory(core.WithRandSeed(1), core.WithMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)
	be := core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1}
	for _, a := range []struct{ name, from, to string }{{"inA", "a0", "a1"}, {"inB", "b0", "b1"}} {
		if _, err := r.Submit(pipelineApp(t, a.name, net, a.from, a.to, 5, be), nil); err != nil {
			t.Fatal(err)
		}
	}
	committed := len(tape.envs)
	// Admitted in memory in both regions, absent from the rebuilt state.
	for _, a := range []struct{ name, from, to string }{{"lostA", "a0", "a1"}, {"lostB", "b0", "b1"}} {
		if _, err := r.Submit(pipelineApp(t, a.name, net, a.from, a.to, 5, be), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Rebuild(net, 2, nil, tape.envs[:committed], shardRebuilder(core.WithRandSeed(1), core.WithMetrics(reg))); err != nil {
		t.Fatal(err)
	}
	var apps []string
	for _, s := range reg.Snapshot()["sparcle_app_allocated_rate"].Series {
		apps = append(apps, s.Labels["app"])
	}
	sort.Strings(apps)
	if want := []string{"inA", "inB"}; !slices.Equal(apps, want) {
		t.Fatalf("rate series after the rebuild: %v, want %v", apps, want)
	}
}
