package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/workload"
)

// batchMeshNet returns a roomier mesh than meshNet: batch tests assert
// no-eviction properties (exactly one solve, batch ≡ sequential) that
// need every admitted app to keep a positive rate.
func batchMeshNet(t *testing.T) *network.Network {
	t.Helper()
	inst, err := workload.Generate(workload.GenConfig{
		Shape:    workload.ShapeLinear,
		Topology: workload.TopoMesh,
		Regime:   workload.Balanced,
		NumNCPs:  12,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return inst.Net
}

// batchApps generates deterministic apps for batch tests, pinned onto
// the given network. With mixGR, every third app is guaranteed-rate;
// otherwise all are best-effort. The single-solve and batch≡sequential
// assertions use all-BE batches: a GR reservation can exhaust an element
// entirely, the solver then rates a BE flow crossing it at exactly zero,
// and the zero-rate eviction legitimately re-solves — with only BE apps
// every flow keeps a positive rate and the batch solves exactly once.
func batchApps(t *testing.T, rng *rand.Rand, net *network.Network, k int, mixGR bool) []App {
	t.Helper()
	var apps []App
	for i := 0; i < k; i++ {
		inst, err := workload.Generate(workload.GenConfig{
			Shape:    workload.ShapeLinear,
			Topology: workload.TopoMesh,
			Regime:   workload.Balanced,
			NumNCPs:  12,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		app := App{Name: "batch-" + itoa(i), Graph: inst.Graph, Pins: workload.PinRandomEnds(inst.Graph, net, rng)}
		if mixGR && i%3 == 0 {
			app.QoS = QoS{Class: GuaranteedRate, MinRate: 0.1, MinRateAvailability: 0.5, MaxPaths: 2}
		} else {
			app.QoS = QoS{Class: BestEffort, Priority: 1 + rng.Float64(), MaxPaths: 2}
		}
		apps = append(apps, app)
	}
	return apps
}

// TestBatchSingleSolveSingleRecord is the issue's acceptance check: a
// batch of K applications performs exactly one BE allocation solve
// (observed via sparcle_alloc_solves_total) and appends exactly one
// journal record.
func TestBatchSingleSolveSingleRecord(t *testing.T) {
	net := batchMeshNet(t)
	rng := rand.New(rand.NewSource(3))
	apps := batchApps(t, rng, net, 6, false)

	reg := obs.NewRegistry()
	var recs []*Record
	s := New(net, WithMetrics(reg))
	s.SetCommitHook(func(rec *Record) error {
		recs = append(recs, roundTrip(t, rec))
		return nil
	})

	solves := func() float64 {
		return reg.Counter(metricAllocSolves, obs.L("solver", "proportional-fair")).Value()
	}
	before := solves()
	results, err := s.SubmitBatch(apps)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if got := solves() - before; got != 1 {
		t.Fatalf("batch of %d apps performed %v solves, want exactly 1", len(apps), got)
	}
	if len(recs) != 1 {
		t.Fatalf("batch appended %d journal records, want exactly 1", len(recs))
	}
	if recs[0].Op != OpBatch || len(recs[0].Batch) != len(apps) {
		t.Fatalf("batch record = op %q with %d entries, want %q with %d", recs[0].Op, len(recs[0].Batch), OpBatch, len(apps))
	}
	admitted := 0
	for i, r := range results {
		if r.Name != apps[i].Name {
			t.Fatalf("result %d is for %q, want %q", i, r.Name, apps[i].Name)
		}
		if r.Err == nil {
			admitted++
			if r.App == nil {
				t.Fatalf("admitted %q has nil App", r.Name)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("batch admitted nothing; the test exercises no allocation")
	}

	// The single record must replay to the exact live state.
	rebuilt, err := Rebuild(net, nil, recs)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := stateJSON(t, rebuilt), stateJSON(t, s); got != want {
		t.Fatalf("batch record did not replay to live state\nlive:    %s\nrebuilt: %s", want, got)
	}
}

// TestBatchMatchesSequential: a batch lands in the same final state as
// the equivalent sequence of Submits — same admitted set and placements,
// rates within solver tolerance (the sequential side solves K times and
// may sit at a slightly different point of the same optimum).
func TestBatchMatchesSequential(t *testing.T) {
	net := batchMeshNet(t)
	apps := batchApps(t, rand.New(rand.NewSource(8)), net, 5, false)

	sb := New(net)
	if _, err := sb.SubmitBatch(apps); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	ss := New(net)
	for _, app := range apps {
		if _, err := ss.Submit(app); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("Submit %s: %v", app.Name, err)
		}
	}
	compareSchedulers(t, ss, sb, 0, 0)
}

// TestBatchPerAppRejection: one infeasible app inside a batch is rejected
// individually; the rest are admitted; still one record.
func TestBatchPerAppRejection(t *testing.T) {
	net := batchMeshNet(t)
	rng := rand.New(rand.NewSource(11))
	apps := batchApps(t, rng, net, 4, false)
	// Make the second app's guarantee impossible to reserve.
	apps[1].QoS = QoS{Class: GuaranteedRate, MinRate: 1e12, MinRateAvailability: 0.5, MaxPaths: 2}

	var recs []*Record
	s := New(net)
	s.SetCommitHook(func(rec *Record) error {
		recs = append(recs, roundTrip(t, rec))
		return nil
	})
	results, err := s.SubmitBatch(apps)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if !errors.Is(results[1].Err, ErrRejected) {
		t.Fatalf("infeasible app error = %v, want ErrRejected", results[1].Err)
	}
	for i, r := range results {
		if i != 1 && r.Err != nil {
			t.Fatalf("feasible app %q rejected: %v", r.Name, r.Err)
		}
	}
	if len(recs) != 1 {
		t.Fatalf("batch appended %d records, want 1", len(recs))
	}
	if got := recs[0].Batch[1].Outcome; got != "rejected" {
		t.Fatalf("rejected entry outcome = %q, want rejected", got)
	}
	rebuilt, err := Rebuild(net, nil, recs)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := stateJSON(t, rebuilt), stateJSON(t, s); got != want {
		t.Fatal("batch-with-rejection record did not replay to live state")
	}
}

// TestBatchNestedRejected guards the batching flag against reentrancy.
func TestBatchNestedRejected(t *testing.T) {
	net := batchMeshNet(t)
	s := New(net)
	s.batching = true
	if _, err := s.SubmitBatch(nil); err == nil {
		t.Fatal("nested SubmitBatch accepted")
	}
}

// TestBatchEmpty: an empty batch is legal, performs no solve, and still
// journals one (empty) record so HTTP retry semantics stay uniform.
func TestBatchEmpty(t *testing.T) {
	net := batchMeshNet(t)
	var recs []*Record
	s := New(net)
	s.SetCommitHook(func(rec *Record) error {
		recs = append(recs, roundTrip(t, rec))
		return nil
	})
	results, err := s.SubmitBatch(nil)
	if err != nil {
		t.Fatalf("SubmitBatch(nil): %v", err)
	}
	if len(results) != 0 || len(recs) != 1 {
		t.Fatalf("empty batch: %d results, %d records; want 0 and 1", len(results), len(recs))
	}
	if _, err := Rebuild(net, nil, recs); err != nil {
		t.Fatalf("Rebuild of empty batch record: %v", err)
	}
}

// TestBatchRatesPositive: admitted BE apps in a batch end with positive
// rates (the zero-rate eviction loop ran to a clean pass).
func TestBatchRatesPositive(t *testing.T) {
	net := batchMeshNet(t)
	apps := batchApps(t, rand.New(rand.NewSource(21)), net, 6, true)
	s := New(net)
	results, err := s.SubmitBatch(apps)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	for _, r := range results {
		if r.Err != nil || r.App.App.QoS.Class != BestEffort {
			continue
		}
		if rate := r.App.TotalRate(); rate <= 0 || math.IsNaN(rate) {
			t.Fatalf("admitted BE app %q has rate %v", r.Name, rate)
		}
	}
}
