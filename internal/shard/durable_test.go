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

	r2, err := Replay(net, 2, nil, tape.envs, shardRebuilder())
	if err != nil {
		t.Fatalf("replay: %v", err)
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
	r2, err := Replay(net, 2, &snap2, tape.envs[cut:], shardRebuilder())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if got, want := routerStateJSON(t, r2), routerStateJSON(t, r); got != want {
		t.Fatalf("snapshot+tail state differs\nlive:    %s\nrebuilt: %s", want, got)
	}
}

// TestSnapshotFromHookSeesWholeOperations: a journal hook cuts its
// periodic snapshot on a goroutine that waits for the committing
// operation's locks. That snapshot must hold each cross-region app whole —
// halves, lease and registry entry — or not at all, at admission and at
// removal alike, so that replay from it has nothing to withdraw. So the
// registry must already show the operation when its envelope commits.
func TestSnapshotFromHookSeesWholeOperations(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	var wg sync.WaitGroup
	snaps := make(chan *RouterSnapshot, 64)
	r.SetEnvelopeHook(func(env *Envelope) error {
		if env.Lease == nil {
			return nil
		}
		if _, err := r.lookup(env.Lease.App); (err == nil) != (env.Lease.Op != leaseRelease) {
			t.Errorf("%s of %q commits before the registry shows it", env.Lease.Op, env.Lease.App)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := r.ExportSnapshot()
			if err != nil {
				t.Error(err)
			}
			snaps <- snap
		}()
		return nil
	})
	be := core.QoS{Class: core.BestEffort, Priority: 1, Availability: 0.5, MaxPaths: 1}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("x%d", i)
		if _, err := r.Submit(pipelineApp(t, name, net, "a0", "b1", 2, be), nil); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(snaps)
	for snap := range snaps {
		var cp RouterSnapshot
		if err := json.Unmarshal([]byte(mustJSON(t, snap)), &cp); err != nil {
			t.Fatal(err)
		}
		restored, err := Replay(net, 2, &cp, nil, shardRebuilder())
		if err != nil {
			t.Fatal(err)
		}
		checkWhole(t, restored, "snapshot cut from the hook")
		if got, want := len(cp.Leases), len(cp.Shards[0].BE)+len(cp.Shards[0].GR); got != want {
			t.Fatalf("snapshot holds %d leases for %d halves in region 0", got, want)
		}
	}
}

// TestConcurrentShardSubmits is the race hammer: goroutines submit,
// remove, and repair intra- and cross-region apps concurrently across
// shards. Run under -race in CI.
func TestConcurrentShardSubmits(t *testing.T) {
	net := dumbbellNet(t, 10000)
	r, err := New(net, 2, newCtlFactory())
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
	r2, err := Replay(net, 2, nil, tape.envs, shardRebuilder())
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
	r, err := New(net, 2, newCtlFactory(core.WithMetrics(reg)))
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
	if _, err := Replay(net, 2, nil, tape.envs[:committed], shardRebuilder(core.WithMetrics(reg))); err != nil {
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
