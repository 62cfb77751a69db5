package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
)

func TestFluctuationRescalesBERates(t *testing.T) {
	net := twoBranchNet(t, 100, 0, 1e9, 0)
	s := New(net)
	be, err := s.Submit(simpleApp(t, "b", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := be.TotalRate(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("nominal rate = %v", got)
	}
	m1, _ := net.NCPIDByName("m1")
	rep, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.BERates["b"]; math.Abs(got-5) > 1e-6 {
		t.Fatalf("degraded rate = %v, want 5", got)
	}
	if got := be.TotalRate(); math.Abs(got-5) > 1e-6 {
		t.Fatalf("placed app rate = %v, want 5", got)
	}
	// Restoring nominal capacity restores the rate.
	rep, err = s.ApplyFluctuation(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.BERates["b"]; math.Abs(got-10) > 1e-6 {
		t.Fatalf("restored rate = %v, want 10", got)
	}
}

func TestFluctuationReportsGRViolations(t *testing.T) {
	net := twoBranchNet(t, 100, 50, 1e6, 0)
	s := New(net)
	if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
		Class: GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	})); err != nil {
		t.Fatal(err)
	}
	m1, _ := net.NCPIDByName("m1")
	// The GR path reserved m1 fully; halving it violates the guarantee.
	rep, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 1 || rep.ViolatedGR[0] != "g" {
		t.Fatalf("violated = %v, want [g]", rep.ViolatedGR)
	}
	// Scaling an untouched element reports no violation.
	m2, _ := net.NCPIDByName("m2")
	rep, err = s.ApplyFluctuation(ElementScale{placement.NCPElement(m2): 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViolatedGR) != 0 {
		t.Fatalf("violated = %v, want none", rep.ViolatedGR)
	}
}

func TestFluctuationAffectsLaterSubmissions(t *testing.T) {
	net := twoBranchNet(t, 100, 0, 1e9, 0)
	s := New(net)
	m1, _ := net.NCPIDByName("m1")
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(m1): 0.25}); err != nil {
		t.Fatal(err)
	}
	pa, err := s.Submit(simpleApp(t, "b", net, 10, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := pa.TotalRate(); math.Abs(got-2.5) > 1e-6 {
		t.Fatalf("rate under degraded network = %v, want 2.5", got)
	}
}

func TestFluctuationLinkScaling(t *testing.T) {
	net := twoBranchNet(t, 1e9, 0, 100, 0) // links bind: rate = 100/1 = 100
	s := New(net)
	be, err := s.Submit(simpleApp(t, "b", net, 1, QoS{Class: BestEffort, Priority: 1}))
	if err != nil {
		t.Fatal(err)
	}
	nominal := be.TotalRate()
	// Scale every link the app's path uses.
	scale := ElementScale{}
	for _, e := range be.Paths[0].P.UsedElements() {
		if int(e) >= net.NumNCPs() {
			scale[e] = 0.5
		}
	}
	rep, err := s.ApplyFluctuation(scale)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.BERates["b"]; math.Abs(got-nominal/2) > 1e-6 {
		t.Fatalf("rate = %v, want %v", got, nominal/2)
	}
}

func TestFluctuationValidation(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0)
	s := New(net)
	if _, err := s.ApplyFluctuation(ElementScale{placement.Element(999): 0.5}); err == nil {
		t.Fatal("unknown element must error")
	}
	if _, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(network.NCPID(0)): -1}); err == nil {
		t.Fatal("negative scale must error")
	}
}

// TestFluctuationRestoreProperty is a property test for the fluctuation
// state machine: for ANY sequence of ApplyFluctuation calls — partial
// scales, full outages (scale 0), overshoots (> 1), mid-sequence
// restores — a final ApplyFluctuation(nil) must leave the scheduler
// indistinguishable from a fresh one that replayed only the admissions:
// identical BE rates and an identical BE capacity pool. This is the
// contract the chaos driver leans on when it tears the network apart and
// puts it back together.
func TestFluctuationRestoreProperty(t *testing.T) {
	deltaCapsCheck = true
	defer func() { deltaCapsCheck = false }()

	const trials = 40
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		cpu1 := 50 + rng.Float64()*100
		cpu2 := 30 + rng.Float64()*100
		bw := 1e3 + rng.Float64()*1e6
		build := func() (*Scheduler, *network.Network, []string) {
			net := twoBranchNet(t, cpu1, cpu2, bw, 0)
			s := New(net)
			var names []string
			if trial%2 == 0 {
				if _, err := s.Submit(simpleApp(t, "g", net, 10, QoS{
					Class: GuaranteedRate, MinRate: 1, MinRateAvailability: 0.9, MaxPaths: 1,
				})); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("b%d", i)
				if _, err := s.Submit(simpleApp(t, name, net, 5, QoS{
					Class: BestEffort, Priority: 0.5 + float64(i),
				})); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				names = append(names, name)
			}
			return s, net, names
		}

		s, net, names := build()
		elems := net.NumNCPs() + net.NumLinks()
		steps := 1 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			if rng.Intn(5) == 0 {
				if _, err := s.ApplyFluctuation(nil); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				continue
			}
			scale := ElementScale{}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				var f float64
				switch rng.Intn(3) {
				case 0:
					f = 0 // hard outage
				case 1:
					f = rng.Float64() // degradation
				default:
					f = 1 + rng.Float64()*0.5 // overshoot
				}
				scale[placement.Element(rng.Intn(elems))] = f
			}
			if _, err := s.ApplyFluctuation(scale); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		if _, err := s.ApplyFluctuation(nil); err != nil {
			t.Fatalf("trial %d final restore: %v", trial, err)
		}

		fresh, _, _ := build()
		freshRates := map[string]float64{}
		for _, pa := range fresh.BEApps() {
			freshRates[pa.App.Name] = pa.TotalRate()
		}
		for _, pa := range s.BEApps() {
			want := freshRates[pa.App.Name]
			if got := pa.TotalRate(); math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("trial %d: BE rate %q = %v after restore, want %v", trial, pa.App.Name, got, want)
			}
		}
		if len(s.BEApps()) != len(names) {
			t.Fatalf("trial %d: %d BE apps after restore, want %d", trial, len(s.BEApps()), len(names))
		}
		if err := capsApproxEqual(s.BEAvailableCapacities(), fresh.BEAvailableCapacities(), 1e-9); err != nil {
			t.Fatalf("trial %d: BE pool after restore: %v", trial, err)
		}
	}
}
