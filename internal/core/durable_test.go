package core

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
	"sparcle/internal/workload"
)

// scriptOp is one deterministic churn operation, applicable to any
// scheduler: two schedulers in identical states make identical decisions,
// so the same script drives a journaled original and a recovered twin.
type scriptOp struct {
	kind  string // "submit", "batch", "remove", "repair", "fluct"
	apps  []App
	name  string
	scale ElementScale
}

func applyOp(t *testing.T, s *Scheduler, op scriptOp) {
	t.Helper()
	switch op.kind {
	case "submit":
		if _, err := s.Submit(op.apps[0]); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("submit %s: %v", op.apps[0].Name, err)
		}
	case "batch":
		if _, err := s.SubmitBatch(op.apps); err != nil {
			t.Fatalf("batch: %v", err)
		}
	case "remove":
		if err := s.Remove(op.name); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("remove %s: %v", op.name, err)
		}
	case "repair":
		if _, err := s.Repair(op.name); err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrRejected) {
			t.Fatalf("repair %s: %v", op.name, err)
		}
	case "fluct":
		if _, err := s.ApplyFluctuation(op.scale); err != nil {
			t.Fatalf("fluctuation: %v", err)
		}
	}
}

// churnScript generates a deterministic mixed operation sequence over the
// given mesh, including every journaled operation kind.
func churnScript(t *testing.T, rng *rand.Rand, net *network.Network, n int) []scriptOp {
	t.Helper()
	genApp := func(i int) App {
		shape := workload.ShapeLinear
		if rng.Intn(2) == 0 {
			shape = workload.ShapeDiamond
		}
		inst, err := workload.Generate(workload.GenConfig{
			Shape:    shape,
			Topology: workload.TopoMesh,
			Regime:   workload.Balanced,
			NumNCPs:  6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		app := App{
			Name:  appName(i),
			Graph: inst.Graph,
			Pins:  workload.PinRandomEnds(inst.Graph, net, rng),
		}
		if rng.Intn(3) == 0 {
			app.QoS = QoS{Class: GuaranteedRate, MinRate: 0.1 + rng.Float64()*0.5, MinRateAvailability: 0.5, MaxPaths: 2}
		} else {
			app.QoS = QoS{Class: BestEffort, Priority: 0.5 + rng.Float64()*2, MaxPaths: 2}
		}
		return app
	}
	var script []scriptOp
	appCount := 0
	for len(script) < n {
		switch r := rng.Intn(12); {
		case r < 5:
			appCount++
			script = append(script, scriptOp{kind: "submit", apps: []App{genApp(appCount)}})
		case r < 6:
			k := 2 + rng.Intn(3)
			var batch []App
			for j := 0; j < k; j++ {
				appCount++
				batch = append(batch, genApp(appCount))
			}
			script = append(script, scriptOp{kind: "batch", apps: batch})
		case r < 8:
			if appCount == 0 {
				continue
			}
			script = append(script, scriptOp{kind: "remove", name: appName(1 + rng.Intn(appCount))})
		case r < 9:
			if appCount == 0 {
				continue
			}
			script = append(script, scriptOp{kind: "repair", name: appName(1 + rng.Intn(appCount))})
		default:
			scale := ElementScale{}
			for v := 0; v < net.NumNCPs(); v++ {
				if rng.Intn(4) == 0 {
					scale[placement.NCPElement(network.NCPID(v))] = 0.4 + rng.Float64()
				}
			}
			script = append(script, scriptOp{kind: "fluct", scale: scale})
		}
	}
	return script
}

func meshNet(t *testing.T) *network.Network {
	t.Helper()
	inst, err := workload.Generate(workload.GenConfig{
		Shape:    workload.ShapeLinear,
		Topology: workload.TopoMesh,
		Regime:   workload.Balanced,
		NumNCPs:  6,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return inst.Net
}

func stateJSON(t *testing.T, s *Scheduler) string {
	t.Helper()
	snap, err := s.ExportSnapshot()
	if err != nil {
		t.Fatalf("ExportSnapshot: %v", err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return string(b)
}

// roundTrip pushes a record through JSON, as the on-disk journal would.
func roundTrip(t *testing.T, rec *Record) *Record {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal record: %v", err)
	}
	out := &Record{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal record: %v", err)
	}
	return out
}

// TestRebuildByteEqual is the recovered-vs-live equality property: after
// every operation of a mixed churn script, a scheduler rebuilt from the
// record stream marshals to the exact same bytes as the live one —
// placements, BE rates, the capacity pool's float low bits, the sparse
// loaded-element lists, and the RNG position all pinned.
func TestRebuildByteEqual(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(42))
	script := churnScript(t, rng, net, 40)

	var records []*Record
	live := New(net)
	live.SetCommitHook(func(rec *Record) error {
		records = append(records, roundTrip(t, rec))
		return nil
	})

	for i, op := range script {
		applyOp(t, live, op)
		want := stateJSON(t, live)
		rebuilt, err := Rebuild(net, nil, records)
		if err != nil {
			t.Fatalf("op %d (%s): Rebuild: %v", i, op.kind, err)
		}
		if got := stateJSON(t, rebuilt); got != want {
			t.Fatalf("op %d (%s): rebuilt state diverged from live\nlive:    %s\nrebuilt: %s", i, op.kind, want, got)
		}
	}
	if len(records) == 0 {
		t.Fatal("script journaled no records")
	}
}

// TestRebuildFromSnapshotPlusTail rebuilds from a mid-stream snapshot and
// the record tail after it, the normal recovery shape.
func TestRebuildFromSnapshotPlusTail(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(99))
	script := churnScript(t, rng, net, 30)

	var records []*Record
	live := New(net)
	live.SetCommitHook(func(rec *Record) error {
		records = append(records, roundTrip(t, rec))
		return nil
	})

	var snapAt *Snapshot
	var tailFrom int
	for i, op := range script {
		applyOp(t, live, op)
		if i == len(script)/2 {
			snap, err := live.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through JSON like the on-disk snapshot file.
			b, _ := json.Marshal(snap)
			snapAt = &Snapshot{}
			if err := json.Unmarshal(b, snapAt); err != nil {
				t.Fatal(err)
			}
			tailFrom = len(records)
		}
	}
	rebuilt, err := Rebuild(net, snapAt, records[tailFrom:])
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := stateJSON(t, rebuilt), stateJSON(t, live); got != want {
		t.Fatalf("snapshot+tail rebuild diverged from live\nlive:    %s\nrebuilt: %s", want, got)
	}
}

// TestRecoveryEquivalenceUnderChurn crash-recovers at a random prefix of
// a churn sequence and drives the recovered scheduler through the
// remaining operations alongside the uncrashed original: subsequent
// decisions must match — identical admitted sets and placements, rates
// within solver tolerance (the recovered side's first solve is cold where
// the original's is warm).
func TestRecoveryEquivalenceUnderChurn(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(1234))
	script := churnScript(t, rng, net, 50)

	for _, cut := range []int{7, 19, 33} {
		var records []*Record
		orig := New(net)
		orig.SetCommitHook(func(rec *Record) error {
			records = append(records, roundTrip(t, rec))
			return nil
		})
		for _, op := range script[:cut] {
			applyOp(t, orig, op)
		}
		recovered, err := Rebuild(net, nil, records)
		if err != nil {
			t.Fatalf("cut %d: Rebuild: %v", cut, err)
		}
		if got, want := stateJSON(t, recovered), stateJSON(t, orig); got != want {
			t.Fatalf("cut %d: recovered state diverged before continuing", cut)
		}
		for i, op := range script[cut:] {
			applyOp(t, orig, op)
			applyOp(t, recovered, op)
			compareSchedulers(t, orig, recovered, cut, cut+i)
		}
	}
}

// compareSchedulers asserts structural equality (names, classes, hosts)
// and near-equality of rates between the uncrashed original and the
// recovered twin.
func compareSchedulers(t *testing.T, a, b *Scheduler, cut, op int) {
	t.Helper()
	aApps := append(a.GRApps(), a.BEApps()...)
	bApps := append(b.GRApps(), b.BEApps()...)
	if len(aApps) != len(bApps) {
		t.Fatalf("cut %d op %d: original has %d apps, recovered %d", cut, op, len(aApps), len(bApps))
	}
	for i := range aApps {
		pa, pb := aApps[i], bApps[i]
		if pa.App.Name != pb.App.Name || pa.App.QoS.Class != pb.App.QoS.Class {
			t.Fatalf("cut %d op %d: app %d is %s/%v vs %s/%v",
				cut, op, i, pa.App.Name, pa.App.QoS.Class, pb.App.Name, pb.App.QoS.Class)
		}
		if len(pa.Paths) != len(pb.Paths) {
			t.Fatalf("cut %d op %d: app %s has %d paths vs %d", cut, op, pa.App.Name, len(pa.Paths), len(pb.Paths))
		}
		if pa.Availability != pb.Availability {
			t.Fatalf("cut %d op %d: app %s availability %v vs %v", cut, op, pa.App.Name, pa.Availability, pb.Availability)
		}
		for j := range pa.Paths {
			for ct := 0; ct < pa.App.Graph.NumCTs(); ct++ {
				ha := pa.Paths[j].P.Host(taskgraph.CTID(ct))
				hb := pb.Paths[j].P.Host(taskgraph.CTID(ct))
				if ha != hb {
					t.Fatalf("cut %d op %d: app %s path %d CT %d hosted on %d vs %d", cut, op, pa.App.Name, j, ct, ha, hb)
				}
			}
			ra, rb := pa.Paths[j].Rate, pb.Paths[j].Rate
			if math.Abs(ra-rb) > 1e-6*math.Max(1, math.Max(ra, rb)) {
				t.Fatalf("cut %d op %d: app %s path %d rate %v vs %v", cut, op, pa.App.Name, j, ra, rb)
			}
		}
	}
}

// TestReplayRejectsGapsAndGarbage exercises replay's refusal paths:
// records referencing unknown apps or claiming impossible RNG positions.
func TestReplayRejectsGapsAndGarbage(t *testing.T) {
	net := meshNet(t)
	if _, err := Rebuild(net, nil, []*Record{{Op: OpRemove, Outcome: "ok", Name: "ghost"}}); err == nil {
		t.Fatal("replayed a remove of a never-admitted app")
	}
	if _, err := Rebuild(net, nil, []*Record{{Op: "mystery", Outcome: "ok"}}); err == nil {
		t.Fatal("replayed an unknown operation")
	}
	if _, err := Rebuild(net, nil, []*Record{{Op: OpRepair, Outcome: "repaired", Name: "ghost"}}); err == nil {
		t.Fatal("replayed a repair of a never-admitted app")
	}
}

// TestDurabilityCommitFailureSurfaces verifies a failing hook wraps
// ErrDurability while the in-memory state stays applied.
func TestDurabilityCommitFailureSurfaces(t *testing.T) {
	net := meshNet(t)
	rng := rand.New(rand.NewSource(5))
	script := churnScript(t, rng, net, 8)
	boom := errors.New("disk full")
	s := New(net)
	s.SetCommitHook(func(*Record) error { return boom })
	var submitted *App
	for _, op := range script {
		if op.kind == "submit" {
			submitted = &op.apps[0]
			break
		}
	}
	if submitted == nil {
		t.Fatal("script has no submit")
	}
	pa, err := s.Submit(*submitted)
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("Submit with failing hook returned %v, want ErrDurability", err)
	}
	if pa == nil {
		t.Fatal("admitted app not returned alongside the durability error")
	}
	if len(append(s.GRApps(), s.BEApps()...)) != 1 {
		t.Fatal("in-memory admission was not applied")
	}
}
