package core

import (
	"errors"
	"math"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
)

func TestRepairMovesViolatedGRApp(t *testing.T) {
	// Two usable branches; the GR app initially lands on the stronger m1.
	net := twoBranchNet(t, 100, 80, 1e6, 0)
	s := New(net)
	pa, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := net.NCPIDByName("m1")
	m2, _ := net.NCPIDByName("m2")
	ct := pa.App.Graph.TopoOrder()[1]
	if pa.Paths[0].P.Host(ct) != m1 {
		t.Fatalf("initial host = %v, want m1 %v", pa.Paths[0].P.Host(ct), m1)
	}

	// m1 dies: the guarantee breaks; Repair must move the app to m2.
	rep, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 1 {
		t.Fatalf("violated = %v", rep.ViolatedGR)
	}
	repaired, err := s.Repair("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := repaired.Paths[0].P.Host(ct); got != m2 {
		t.Fatalf("repaired host = %v, want m2 %v", got, m2)
	}
	if repaired.TotalRate() < 5 {
		t.Fatalf("repaired rate = %v", repaired.TotalRate())
	}
	if len(s.GRApps()) != 1 {
		t.Fatalf("scheduler tracks %d GR apps", len(s.GRApps()))
	}
	// No violation remains under the current fluctuation.
	rep2, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.ViolatedGR) != 0 {
		t.Fatalf("still violated after repair: %v", rep2.ViolatedGR)
	}
}

func TestRepairRestoresOnFailure(t *testing.T) {
	// Only one usable branch: when it dies, repair cannot succeed and the
	// old placement must be restored.
	net := twoBranchNet(t, 100, 0, 1e6, 0)
	s := New(net)
	if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	m1, _ := net.NCPIDByName("m1")
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.1}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Repair("g")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if len(s.GRApps()) != 1 || s.GRApps()[0].App.Name != "g" {
		t.Fatal("violated app must be restored after failed repair")
	}
}

func TestRepairUnknownApp(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0)
	s := New(net)
	if _, err := s.Repair("nope"); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestRepairReleasesOldReservation(t *testing.T) {
	// After a successful repair onto m2, m1's capacity must be free again
	// (modulo the fluctuation) for other applications.
	net := twoBranchNet(t, 100, 80, 1e6, 0)
	s := New(net)
	if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	m1, _ := net.NCPIDByName("m1")
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair("g"); err != nil {
		t.Fatal(err)
	}
	// m1 is at 50 capacity, and the repaired app sits on m2: the whole 50
	// must be in the BE pool.
	if got := s.BEAvailableCapacities().NCP[network.NCPID(m1)]["cpu"]; got != 50 {
		t.Fatalf("m1 residual = %v, want 50", got)
	}
}

// TestRepairRollbackKeepsBEStateConsistent pins the invariants after a
// forced rollback: when Repair fails and restores the old placement, the
// incremental BE solver must not survive with constraint state from the
// abandoned re-placement attempt. Every later allocation and the BE
// capacity pool must be indistinguishable from a scheduler that never
// attempted the repair.
func TestRepairRollbackKeepsBEStateConsistent(t *testing.T) {
	deltaCapsCheck = true
	defer func() { deltaCapsCheck = false }()

	build := func() (*Scheduler, *network.Network) {
		net := twoBranchNet(t, 100, 80, 1e6, 0)
		s := New(net)
		if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
			Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
		})); err != nil {
			t.Fatal(err)
		}
		for _, be := range []struct {
			name string
			prio float64
		}{{"b1", 1}, {"b2", 2}} {
			if _, err := s.Submit(simpleApp(t, be.name, net, 10, QoS{
				Class: BestEffort, Priority: be.prio,
			})); err != nil {
				t.Fatal(err)
			}
		}
		return s, net
	}
	exercise := func(s *Scheduler, net *network.Network, repair bool) {
		m1, _ := net.NCPIDByName("m1")
		m2, _ := net.NCPIDByName("m2")
		// Crush both branches so no re-placement can satisfy MinRate 5.
		if _, err := s.ApplyFluctuation(ElementScale{
			placement.NCPElement(m1): 0.05,
			placement.NCPElement(m2): 0.05,
		}); err != nil {
			t.Fatal(err)
		}
		if repair {
			if _, err := s.Repair("g"); !errors.Is(err, ErrRejected) {
				t.Fatalf("repair err = %v, want ErrRejected (both branches crushed)", err)
			}
			if len(s.GRApps()) != 1 || s.GRApps()[0].App.Name != "g" {
				t.Fatal("violated app not restored")
			}
		}
		// Post-rollback life: restore nominal capacity and admit another
		// BE app through the (dropped and rebuilt) solver.
		if _, err := s.ApplyFluctuation(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(simpleApp(t, "b3", net, 10, QoS{Class: BestEffort, Priority: 1})); err != nil {
			t.Fatal(err)
		}
	}

	repaired, netA := build()
	exercise(repaired, netA, true)
	pristine, netB := build()
	exercise(pristine, netB, false)

	rates := func(s *Scheduler) map[string]float64 {
		out := map[string]float64{}
		for _, pa := range s.BEApps() {
			out[pa.App.Name] = pa.TotalRate()
		}
		return out
	}
	got, want := rates(repaired), rates(pristine)
	if len(got) != len(want) {
		t.Fatalf("BE apps %v vs %v", got, want)
	}
	for name, w := range want {
		if g := got[name]; math.Abs(g-w) > 1e-6*math.Max(1, w) {
			t.Fatalf("BE rate %q = %v after rollback, want %v (pristine replay)", name, g, w)
		}
	}
	if err := capsApproxEqual(repaired.BEAvailableCapacities(), pristine.BEAvailableCapacities(), 1e-9); err != nil {
		t.Fatalf("BE pool diverged after rollback: %v", err)
	}
}
