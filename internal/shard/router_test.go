package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
	"sparcle/internal/workload"
)

func newCtlFactory(opts ...core.Option) func(sub *network.Network, region int) *core.Scheduler {
	return func(sub *network.Network, region int) *core.Scheduler {
		return core.New(sub, opts...)
	}
}

// TestSingleShardByteIdentical is the refactor's property test: a Router
// with one shard must be byte-for-byte the unsharded scheduler. The same
// randomized operation mix (submits, batches, removals, repairs,
// fluctuations) runs against both, and the exported snapshots — the
// complete observable state: placements, availabilities (γ), BE rates,
// pool, RNG draws — are compared as JSON bytes after every operation.
func TestSingleShardByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst, err := workload.Generate(workload.GenConfig{
		Shape:    workload.ShapeLinear,
		Topology: workload.TopoMesh,
		Regime:   workload.Balanced,
		NumNCPs:  6,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := inst.Net
	plain := core.New(net)
	router, err := New(net, 1, newCtlFactory())
	if err != nil {
		t.Fatal(err)
	}

	check := func(op int) {
		t.Helper()
		a, err := plain.ExportSnapshot()
		if err != nil {
			t.Fatalf("op %d: plain snapshot: %v", op, err)
		}
		b, err := router.Shard(0).ExportSnapshot()
		if err != nil {
			t.Fatalf("op %d: shard snapshot: %v", op, err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("op %d: single-shard state diverged from the unsharded scheduler\nplain: %s\nshard: %s", op, aj, bj)
		}
	}

	appCount := 0
	var live []string
	var liveGR []string
	genApp := func() core.App {
		appCount++
		shape := workload.ShapeLinear
		if rng.Intn(2) == 0 {
			shape = workload.ShapeDiamond
		}
		appInst, err := workload.Generate(workload.GenConfig{
			Shape:    shape,
			Topology: workload.TopoMesh,
			Regime:   workload.Balanced,
			NumNCPs:  6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		app := core.App{
			Name:  fmt.Sprintf("app-%03d", appCount),
			Graph: appInst.Graph,
			Pins:  workload.PinRandomEnds(appInst.Graph, net, rng),
		}
		if rng.Intn(3) == 0 {
			app.QoS = core.QoS{Class: core.GuaranteedRate, MinRate: 0.1 + rng.Float64()*0.5, MinRateAvailability: 0.5, MaxPaths: 2}
		} else {
			app.QoS = core.QoS{Class: core.BestEffort, Priority: 0.5 + rng.Float64()*2, MaxPaths: 2}
		}
		return app
	}

	for op := 0; op < 120; op++ {
		switch r := rng.Intn(12); {
		case r < 5:
			app := genApp()
			pa, errA := plain.Submit(app)
			res, errB := router.Submit(app, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: submit diverged: %v vs %v", op, errA, errB)
			}
			if errA == nil {
				if pa.TotalRate() != res.App.TotalRate() || pa.Availability != res.App.Availability {
					t.Fatalf("op %d: placed app diverged", op)
				}
				live = append(live, app.Name)
				if app.QoS.Class == core.GuaranteedRate {
					liveGR = append(liveGR, app.Name)
				}
			}
		case r < 6:
			apps := []core.App{genApp(), genApp(), genApp()}
			resA, errA := plain.SubmitBatch(apps)
			resB, errB := router.SubmitBatch(apps, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: batch diverged: %v vs %v", op, errA, errB)
			}
			for i := range resA {
				if (resA[i].Err == nil) != (resB[i].Err == nil) {
					t.Fatalf("op %d: batch entry %d diverged: %v vs %v", op, i, resA[i].Err, resB[i].Err)
				}
				if resA[i].Err == nil {
					live = append(live, apps[i].Name)
					if apps[i].QoS.Class == core.GuaranteedRate {
						liveGR = append(liveGR, apps[i].Name)
					}
				}
			}
		case r < 8:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			name := live[i]
			live = append(live[:i], live[i+1:]...)
			for j, n := range liveGR {
				if n == name {
					liveGR = append(liveGR[:j], liveGR[j+1:]...)
					break
				}
			}
			errA := plain.Remove(name)
			errB := router.Remove(name, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: remove diverged: %v vs %v", op, errA, errB)
			}
		case r < 9:
			if len(liveGR) == 0 {
				continue
			}
			name := liveGR[rng.Intn(len(liveGR))]
			_, errA := plain.Repair(name)
			_, errB := router.Repair(name, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: repair diverged: %v vs %v", op, errA, errB)
			}
		default:
			scale := core.ElementScale{}
			for v := 0; v < net.NumNCPs(); v++ {
				if rng.Intn(4) == 0 {
					scale[placement.NCPElement(network.NCPID(v))] = 0.5 + rng.Float64()
				}
			}
			repA, errA := plain.ApplyFluctuation(scale)
			repB, errB := router.ApplyFluctuation(scale, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: fluctuation diverged: %v vs %v", op, errA, errB)
			}
			if errA == nil && len(repA.ViolatedGR) != len(repB.ViolatedGR) {
				t.Fatalf("op %d: fluctuation report diverged", op)
			}
		}
		check(op)
	}
	if appCount < 40 {
		t.Fatalf("property test exercised only %d apps", appCount)
	}
}

// dumbbellNet builds two 2-NCP regions joined by one border link:
//
//	a0 -- a1 ==== b0 -- b1
//
// with the a1==b0 bridge carrying borderBW bandwidth.
func dumbbellNet(t *testing.T, borderBW float64) *network.Network {
	t.Helper()
	b := network.NewBuilder("dumbbell")
	caps := resource.Vector{resource.CPU: 1000}
	a0 := b.AddNCP("a0", caps, 0.01)
	a1 := b.AddNCP("a1", caps, 0.01)
	b0 := b.AddNCP("b0", caps, 0.01)
	b1 := b.AddNCP("b1", caps, 0.01)
	b.AddLink("la", a0, a1, 10000, 0.01)
	b.AddLink("bridge", a1, b0, borderBW, 0.02)
	b.AddLink("lb", b0, b1, 10000, 0.01)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// pipelineApp builds src -> mid -> dst with src pinned to from and dst
// pinned to to.
func pipelineApp(t *testing.T, name string, net *network.Network, from, to string, bits float64, qos core.QoS) core.App {
	t.Helper()
	b := taskgraph.NewBuilder(name + "-graph")
	src := b.AddCT("src", nil)
	mid := b.AddCT("mid", resource.Vector{resource.CPU: 1})
	dst := b.AddCT("dst", nil)
	b.AddTT("t0", src, mid, bits)
	b.AddTT("t1", mid, dst, bits)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fromID, ok := net.NCPIDByName(from)
	if !ok {
		t.Fatalf("no NCP %q", from)
	}
	toID, ok := net.NCPIDByName(to)
	if !ok {
		t.Fatalf("no NCP %q", to)
	}
	return core.App{
		Name:  name,
		Graph: g,
		Pins:  placement.Pins{src: fromID, dst: toID},
		QoS:   qos,
	}
}

func twoShardRouter(t *testing.T, net *network.Network) *Router {
	t.Helper()
	r, err := New(net, 2, newCtlFactory())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 2 {
		t.Fatalf("%d shards", r.NumShards())
	}
	return r
}

// TestCrossRegionAdmitRemove: an app pinned across the dumbbell is
// decomposed into two leased halves; removal releases the lease and
// both halves.
func TestCrossRegionAdmitRemove(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)

	app := pipelineApp(t, "cross", net, "a0", "b1", 10,
		core.QoS{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1})
	res, err := r.Submit(app, nil)
	if err != nil {
		t.Fatalf("cross submit: %v", err)
	}
	if res.Cross == nil {
		t.Fatal("expected a cross-region result")
	}
	if res.Cross.BorderLink != "bridge" {
		t.Fatalf("leased %q, want bridge", res.Cross.BorderLink)
	}
	if res.Cross.Rate <= 0 {
		t.Fatalf("cross rate %v", res.Cross.Rate)
	}
	// One cut TT (mid sits on one side): the lease covers bits*rate.
	st := r.Stats()
	if st.Leases != 1 {
		t.Fatalf("leases = %d", st.Leases)
	}
	var bridge BorderStats
	for _, bs := range st.Border {
		if bs.Link == "bridge" {
			bridge = bs
		}
	}
	wantLease := res.Cross.Bits * res.Cross.Rate
	if diff := bridge.Leased - wantLease; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("bridge leased %v, want %v", bridge.Leased, wantLease)
	}
	// The halves live in their shards under suffixed names.
	if got := len(r.Shard(0).GRApps()) + len(r.Shard(1).GRApps()); got != 2 {
		t.Fatalf("halves admitted: %d", got)
	}
	// End-to-end availability accounts for both halves and the border.
	if res.App.Availability > res.Cross.HalfA.Availability ||
		res.App.Availability > res.Cross.HalfB.Availability {
		t.Fatal("combined availability exceeds a half's")
	}

	if err := r.Remove("cross", nil); err != nil {
		t.Fatalf("remove: %v", err)
	}
	st = r.Stats()
	if st.Leases != 0 {
		t.Fatalf("leases after remove = %d", st.Leases)
	}
	if got := len(r.Shard(0).GRApps()) + len(r.Shard(1).GRApps()); got != 0 {
		t.Fatalf("halves after remove: %d", got)
	}
	if err := r.Remove("cross", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

// TestCrossRegionBorderEndpointPins admits apps pinned on either side of
// the dumbbell, the bridge's endpoints (a1, b0) included. A half whose
// CTs all sit on its border endpoint loads no element, so its path is
// rate-unbounded; the half's lease cap is then its reservation. The
// two-CT app has no middle CT, so pinned a1→b0 neither half loads
// anything.
func TestCrossRegionBorderEndpointPins(t *testing.T) {
	twoCT := func(name, from, to string, qos core.QoS, net *network.Network) core.App {
		b := taskgraph.NewBuilder(name + "-graph")
		src, dst := b.AddCT("src", nil), b.AddCT("dst", nil)
		b.AddTT("t0", src, dst, 10)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		fromID, _ := net.NCPIDByName(from)
		toID, _ := net.NCPIDByName(to)
		return core.App{Name: name, Graph: g, Pins: placement.Pins{src: fromID, dst: toID}, QoS: qos}
	}
	for _, qos := range []core.QoS{
		{Class: core.BestEffort, Priority: 1, Availability: 0.5, MaxPaths: 1},
		{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1},
	} {
		for _, from := range []string{"a0", "a1"} {
			for _, to := range []string{"b0", "b1"} {
				for _, shape := range []string{"pipeline", "two-CT"} {
					net := dumbbellNet(t, 1000)
					r := twoShardRouter(t, net)
					app := pipelineApp(t, "cross", net, from, to, 10, qos)
					if shape == "two-CT" {
						app = twoCT("cross", from, to, qos, net)
					}
					res, err := r.Submit(app, nil)
					if err != nil {
						t.Fatalf("%v %s %s→%s: %v", qos.Class, shape, from, to, err)
					}
					if res.Cross == nil || !(res.Cross.Rate > 0) || math.IsInf(res.Cross.Rate, 1) {
						t.Fatalf("%v %s %s→%s: cross result %+v", qos.Class, shape, from, to, res.Cross)
					}
				}
			}
		}
	}
}

// TestCrossRegionLeaseCap: when the border link is the bottleneck, the
// admitted rate is exactly the lease headroom over the cut bits, and a
// second cross app competes for what remains.
func TestCrossRegionLeaseCap(t *testing.T) {
	net := dumbbellNet(t, 100) // bridge: 100 bits/s
	r := twoShardRouter(t, net)

	qos := core.QoS{Class: core.GuaranteedRate, MinRate: 0.1, MinRateAvailability: 0.5, MaxPaths: 1}
	res, err := r.Submit(pipelineApp(t, "c1", net, "a0", "b1", 10, qos), nil)
	if err != nil {
		t.Fatalf("c1: %v", err)
	}
	// Cut bits = 10, headroom = 100 → rate capped at 10.
	if res.Cross.Rate > 10+1e-9 {
		t.Fatalf("c1 rate %v exceeds lease cap 10", res.Cross.Rate)
	}
	if res.Cross.Rate < 10-1e-6 {
		t.Fatalf("c1 rate %v below the border bottleneck", res.Cross.Rate)
	}
	// The border is fully leased; the next cross app must be rejected.
	_, err = r.Submit(pipelineApp(t, "c2", net, "a0", "b1", 10, qos), nil)
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("c2 on a full border: %v", err)
	}
	// Releasing c1 frees the border for c2.
	if err := r.Remove("c1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pipelineApp(t, "c2", net, "a0", "b1", 10, qos), nil); err != nil {
		t.Fatalf("c2 after release: %v", err)
	}
}

// TestCrossRegionBestEffort: BE apps admit across regions too (as capped
// reservations) and report the BE class at the router level.
func TestCrossRegionBestEffort(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	app := pipelineApp(t, "be-cross", net, "a0", "b1", 5,
		core.QoS{Class: core.BestEffort, Priority: 1, Availability: 0.5, MaxPaths: 1})
	res, err := r.Submit(app, nil)
	if err != nil {
		t.Fatalf("BE cross submit: %v", err)
	}
	if res.Cross == nil || res.Cross.Rate <= 0 {
		t.Fatal("BE cross app not leased")
	}
	if err := r.Remove("be-cross", nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntraRegionIsolation: apps pinned within one region admit through
// their own shard only and never touch the lease table.
func TestIntraRegionIsolation(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	a := pipelineApp(t, "inA", net, "a0", "a1", 5,
		core.QoS{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1})
	bApp := pipelineApp(t, "inB", net, "b0", "b1", 5,
		core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1})
	resA, err := r.Submit(a, nil)
	if err != nil {
		t.Fatalf("inA: %v", err)
	}
	resB, err := r.Submit(bApp, nil)
	if err != nil {
		t.Fatalf("inB: %v", err)
	}
	if resA.Cross != nil || resB.Cross != nil {
		t.Fatal("intra apps classified cross")
	}
	if resA.Shard == resB.Shard {
		t.Fatalf("both apps in shard %d", resA.Shard)
	}
	if r.Stats().Leases != 0 {
		t.Fatal("intra apps acquired leases")
	}
	// Duplicate logical names are rejected across shards.
	if _, err := r.Submit(a, nil); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("duplicate name: %v", err)
	}
	// Names that could collide with half names are rejected.
	bad := a
	bad.Name = "evil@0"
	if _, err := r.Submit(bad, nil); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("half-like name: %v", err)
	}
}

// TestCrossRegionFluctuation: degrading the border link below the leased
// bandwidth surfaces the cross app as violated; intra fluctuations route
// to their region.
func TestCrossRegionFluctuation(t *testing.T) {
	net := dumbbellNet(t, 100)
	r := twoShardRouter(t, net)
	qos := core.QoS{Class: core.GuaranteedRate, MinRate: 0.1, MinRateAvailability: 0.5, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "c1", net, "a0", "b1", 10, qos), nil); err != nil {
		t.Fatal(err)
	}
	bridgeID := network.LinkID(-1)
	for l := 0; l < net.NumLinks(); l++ {
		if net.Link(network.LinkID(l)).Name == "bridge" {
			bridgeID = network.LinkID(l)
		}
	}
	rep, err := r.ApplyFluctuation(core.ElementScale{
		placement.LinkElement(net, bridgeID): 0.5,
	}, nil)
	if err != nil {
		t.Fatalf("fluctuation: %v", err)
	}
	found := false
	for _, v := range rep.ViolatedGR {
		if v == "c1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violated = %v, want c1", rep.ViolatedGR)
	}
	// Restoring nominal capacity clears the violation.
	rep, err = r.ApplyFluctuation(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 0 {
		t.Fatalf("violated after restore = %v", rep.ViolatedGR)
	}
}

// TestCrossRegionRepair renegotiates the lease on repair.
func TestCrossRegionRepair(t *testing.T) {
	net := dumbbellNet(t, 100)
	r := twoShardRouter(t, net)
	qos := core.QoS{Class: core.GuaranteedRate, MinRate: 0.1, MinRateAvailability: 0.5, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "c1", net, "a0", "b1", 10, qos), nil); err != nil {
		t.Fatal(err)
	}
	res, err := r.Repair("c1", nil)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Cross == nil || res.Cross.Rate <= 0 {
		t.Fatal("repair lost the cross placement")
	}
	if got := res.App.App.QoS.Class; got != core.GuaranteedRate {
		t.Fatalf("repaired logical view class = %v", got)
	}
	if r.Stats().Leases != 1 {
		t.Fatalf("leases after repair = %d", r.Stats().Leases)
	}
	if err := r.Remove("c1", nil); err != nil {
		t.Fatal(err)
	}
}

// TestCrossRepairRenegotiatesDegradedBorder: repair after a border-link
// degradation trims the lease to the link's current headroom when the
// smaller rate still satisfies the app, and withdraws with a rejection
// (not an internal error) when it cannot.
func TestCrossRepairRenegotiatesDegradedBorder(t *testing.T) {
	net := dumbbellNet(t, 100)
	r := twoShardRouter(t, net)
	bridgeID := network.LinkID(-1)
	for l := 0; l < net.NumLinks(); l++ {
		if net.Link(network.LinkID(l)).Name == "bridge" {
			bridgeID = network.LinkID(l)
		}
	}
	qos := core.QoS{Class: core.GuaranteedRate, MinRate: 0.1, MinRateAvailability: 0.5, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "c1", net, "a0", "b1", 10, qos), nil); err != nil {
		t.Fatal(err)
	}
	// Half capacity: the renegotiated rate (bridge 50 / bits 10 = 5)
	// still clears MinRate, so repair shrinks the lease instead of
	// failing on the stale one.
	if _, err := r.ApplyFluctuation(core.ElementScale{
		placement.LinkElement(net, bridgeID): 0.5,
	}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := r.Repair("c1", nil)
	if err != nil {
		t.Fatalf("repair on degraded border: %v", err)
	}
	if got := res.Cross.Rate; got > 5+1e-6 || got <= 0 {
		t.Fatalf("renegotiated rate = %v, want (0, 5]", got)
	}
	// Near-dead border: headroom 0.1/10 = 0.01 < MinRate — the repair
	// must withdraw the app with a rejection, not an internal error.
	if _, err := r.ApplyFluctuation(core.ElementScale{
		placement.LinkElement(net, bridgeID): 0.001,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Repair("c1", nil); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("repair on dead border: %v (want ErrRejected)", err)
	}
	if _, err := r.Repair("c1", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("app should be withdrawn after failed cross repair: %v", err)
	}
}

// TestDuplicateNameRejected: at every shard count, a second admission of
// a resident name — through Submit or SubmitBatch — is refused by the
// registry and leaves every shard's state untouched. Every router groups
// (the ungrouped leg went with the branch it selected), and the subtest
// names keep saying so.
func TestDuplicateNameRejected(t *testing.T) {
	net := dumbbellNet(t, 1000)
	qos := core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1}
	for _, k := range []int{1, 2} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("k%d/grouped=true/batch=%v", k, batch), func(t *testing.T) {
				r, err := New(net, k, newCtlFactory())
				if err != nil {
					t.Fatal(err)
				}
				app := pipelineApp(t, "dup", net, "a0", "a1", 5, qos)
				if _, err := r.Submit(app, nil); err != nil {
					t.Fatalf("first admission: %v", err)
				}
				before := make([]string, k)
				for i := range before {
					before[i] = shardStateJSON(t, r.Shard(i))
				}
				if batch {
					res, err := r.SubmitBatch([]core.App{app}, nil)
					if err != nil || len(res) != 1 || !errors.Is(res[0].Err, core.ErrRejected) {
						t.Fatalf("duplicate in a batch: results %+v, err %v (want ErrRejected)", res, err)
					}
				} else if _, err := r.Submit(app, nil); !errors.Is(err, core.ErrRejected) {
					t.Fatalf("duplicate submit: %v (want ErrRejected)", err)
				}
				for i := range before {
					if got := shardStateJSON(t, r.Shard(i)); got != before[i] {
						t.Fatalf("shard %d changed under a refused duplicate\nbefore: %s\nafter:  %s", i, before[i], got)
					}
				}
			})
		}
	}
}

// TestNewRouterGroups: a router that New or Replay returns commits every
// intra-region submit through its shard's group committer with no
// further call, and each committer reports to the registry its shard's
// scheduler reports to.
func TestNewRouterGroups(t *testing.T) {
	net := dumbbellNet(t, 1000)
	for _, tc := range []struct {
		name  string
		build func(reg *obs.Registry) (*Router, error)
	}{
		{"New", func(reg *obs.Registry) (*Router, error) {
			return New(net, 2, newCtlFactory(core.WithMetrics(reg)))
		}},
		{"Replay", func(reg *obs.Registry) (*Router, error) {
			return Replay(net, 2, nil, nil, shardRebuilder(core.WithMetrics(reg)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			r, err := tc.build(reg)
			if err != nil {
				t.Fatal(err)
			}
			app := pipelineApp(t, "one", net, "a0", "a1", 5, core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1})
			if _, err := r.Submit(app, nil); err != nil {
				t.Fatal(err)
			}
			if st := r.GroupStats(); st.Groups != 1 || st.Apps != 1 || st.Follows != 0 || st.MaxSize != 64 {
				t.Fatalf("GroupStats after one submit = %+v, want 1 group of 1 app, max size 64", st)
			}
			if got := reg.Counter("sparcle_group_commit_leads_total").Value(); got != 1 {
				t.Fatalf("registry counts %v group leads, want 1", got)
			}
		})
	}
}

// TestAppsByShardDetached: GET /apps renders AppsByShard's result after
// the shard locks are released, so the result must not share rates with
// the residents: a later admission's re-solve on the same shard leaves
// an earlier listing's rates unchanged.
func TestAppsByShardDetached(t *testing.T) {
	net := dumbbellNet(t, 1000)
	r := twoShardRouter(t, net)
	be := core.QoS{Class: core.BestEffort, Priority: 1, MaxPaths: 1}
	if _, err := r.Submit(pipelineApp(t, "first", net, "a0", "a1", 5000, be), nil); err != nil {
		t.Fatal(err)
	}
	listed := r.AppsByShard(nil)[0]
	before := listed[0].Paths[0].Rate
	if _, err := r.Submit(pipelineApp(t, "second", net, "a0", "a1", 5000, be), nil); err != nil {
		t.Fatal(err)
	}
	if live := r.Shard(0).BEApps()[0].Paths[0].Rate; live == before {
		t.Fatalf("the second admission did not move the first app's rate (%v): the test shows nothing", live)
	}
	if got := listed[0].Paths[0].Rate; got != before {
		t.Fatalf("an earlier listing's rate moved from %v to %v", before, got)
	}
}

func shardStateJSON(t *testing.T, c *core.Scheduler) string {
	t.Helper()
	snap, err := c.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFluctuationValidatedWhole: a scale that core would refuse (negative,
// NaN or infinite), on a border link or on one region's NCP, fails the
// whole fluctuation before any shard, the border table or the journal
// sees a share of it — even when the rest of the map is valid.
func TestFluctuationValidatedWhole(t *testing.T) {
	net := dumbbellNet(t, 1000)
	elem := func(kind, name string) placement.Element {
		if kind == "ncp" {
			id, _ := net.NCPIDByName(name)
			return placement.NCPElement(id)
		}
		for l := 0; l < net.NumLinks(); l++ {
			if net.Link(network.LinkID(l)).Name == name {
				return placement.LinkElement(net, network.LinkID(l))
			}
		}
		t.Fatalf("no link %q", name)
		return 0
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, target := range []string{"border", "intra"} {
			t.Run(fmt.Sprintf("%v/%s", bad, target), func(t *testing.T) {
				r := twoShardRouter(t, net)
				gr := core.QoS{Class: core.GuaranteedRate, MinRate: 1, MinRateAvailability: 0.5, MaxPaths: 1}
				if _, err := r.Submit(pipelineApp(t, "cross", net, "a0", "b1", 10, gr), nil); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Submit(pipelineApp(t, "inB", net, "b0", "b1", 5, gr), nil); err != nil {
					t.Fatal(err)
				}
				tape := &journalTape{}
				r.SetEnvelopeHook(tape.hook)
				before := routerStateJSON(t, r)

				// Region 0 gets a valid share either way; the bad value sits
				// on the bridge or on region 1's NCP.
				scale := core.ElementScale{elem("ncp", "a0"): 0.5}
				if target == "border" {
					scale[elem("link", "bridge")] = bad
				} else {
					scale[elem("link", "bridge")] = 0.9
					scale[elem("ncp", "b1")] = bad
				}
				if _, err := r.ApplyFluctuation(scale, nil); err == nil {
					t.Fatal("invalid scale accepted")
				}
				if got := routerStateJSON(t, r); got != before {
					t.Fatalf("refused fluctuation changed the router\nbefore: %s\nafter:  %s", before, got)
				}
				if len(tape.envs) != 0 {
					t.Fatalf("refused fluctuation journaled %d envelopes", len(tape.envs))
				}
			})
		}
	}
}

// TestRemoveLeavesOnlyZeroedBE is core's test of the same name through the
// service's host: on a one-region router, a GR reservation takes BE app
// "a"'s whole m1 branch down to zero capacity while "b" keeps m2.
// Removing "b" leaves the region's solver only zeroed flows — an answer
// (rate 0), not a failure, so the departure succeeds.
func TestRemoveLeavesOnlyZeroedBE(t *testing.T) {
	b := network.NewBuilder("twobranch")
	src := b.AddNCP("src", nil, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 100}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 60}, 0)
	snk := b.AddNCP("snk", nil, 0)
	b.AddLink("s1", src, m1, 10, 0)
	b.AddLink("s2", src, m2, 10, 0)
	b.AddLink("m1k", m1, snk, 10, 0)
	b.AddLink("m2k", m2, snk, 10, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(net, 1, newCtlFactory())
	if err != nil {
		t.Fatal(err)
	}
	app := func(name string, qos core.QoS) core.App {
		g, err := taskgraph.Linear(name, []resource.Vector{{resource.CPU: 10}}, []float64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return core.App{Name: name, Graph: g, QoS: qos,
			Pins: placement.Pins{g.Sources()[0]: src, g.Sinks()[0]: snk}}
	}
	for _, a := range []core.App{
		app("a", core.QoS{Class: core.BestEffort, Priority: 1}),
		app("b", core.QoS{Class: core.BestEffort, Priority: 1}),
		// Rate 10 reserves the whole m1 branch: its cpu (10·10) and both
		// 10-wide links.
		app("g", core.QoS{Class: core.GuaranteedRate, MinRate: 10, MinRateAvailability: 0.9, MaxPaths: 1}),
	} {
		if _, err := router.Submit(a, nil); err != nil {
			t.Fatalf("submit %s: %v", a.Name, err)
		}
	}
	rate := func(name string) float64 {
		for _, shard := range router.AppsByShard(nil) {
			for _, p := range shard {
				if p.App.Name == name {
					return p.TotalRate()
				}
			}
		}
		t.Fatalf("no app %q", name)
		return 0
	}
	if ra, rb := rate("a"), rate("b"); ra != 0 || rb <= 0 {
		t.Fatalf("after the reservation a = %v, b = %v; want a zeroed on m1, b served on m2", ra, rb)
	}
	if err := router.Remove("b", nil); err != nil {
		t.Fatalf("Remove leaving only zeroed flows: %v", err)
	}
	if got := rate("a"); got != 0 {
		t.Fatalf("survivor rate = %v, want 0", got)
	}
}

// TestUnpinnedAppRejectedByRoute: Algorithm 2 places only graphs whose
// sources and sinks are pinned, so the router rejects an app that pins
// no CT itself, through Submit and SubmitBatch alike: ErrRejected naming
// the pin rule, counted once as rejected, with every shard lock held
// elsewhere (it takes none) and no record written. Its name stays free.
func TestUnpinnedAppRejectedByRoute(t *testing.T) {
	net := lopsidedNet(t)
	reg := obs.NewRegistry()
	r, err := New(net, 2, newCtlFactory(core.WithMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	tape := &journalTape{}
	r.SetEnvelopeHook(tape.hook)
	be := core.QoS{Class: core.BestEffort, Priority: 1, Availability: 0.5, MaxPaths: 1}
	unpinned := pipelineApp(t, "u", net, "a0", "a1", 1, be)
	unpinned.Pins = nil
	for _, s := range r.slots {
		s.mu.Lock()
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(unpinned, nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		err = errors.New("Submit waited for a shard lock")
	}
	for _, s := range r.slots {
		s.mu.Unlock()
	}
	if !errors.Is(err, core.ErrRejected) || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("Submit of an unpinned app: %v, want ErrRejected naming the pin rule", err)
	}
	res, err := r.SubmitBatch([]core.App{unpinned, pipelineApp(t, "p", net, "a0", "a1", 1, be)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, core.ErrRejected) || res[1].Err != nil {
		t.Fatalf("SubmitBatch verdicts %v, %v: want the unpinned app rejected, the pinned one admitted", res[0].Err, res[1].Err)
	}
	if len(tape.envs) != 1 || tape.envs[0].Rec == nil || len(tape.envs[0].Rec.Batch) != 1 {
		t.Fatalf("committed %s, want one record of the pinned app alone", mustJSON(t, tape.envs))
	}
	rejected := reg.Counter(metricAdmissions, obs.L("class", be.Class.String()), obs.L("outcome", "rejected")).Value()
	if rejected != 2 {
		t.Fatalf("%v rejections counted, want 2 (one per submission)", rejected)
	}
	if _, ok := r.ShardOf("u"); ok {
		t.Fatal("the rejected app's name is still claimed")
	}
}
