package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/workload"
)

// TestSchedulerStress drives the scheduler through long random sequences
// of submissions, removals and capacity fluctuations and checks the global
// invariants after every operation: the BE capacity pool stays
// non-negative, every admitted app keeps a positive rate and its original
// placement, and the aggregate demand never exceeds the (scaled) network
// capacity.
func TestSchedulerStress(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"no-prediction", []Option{WithoutPrediction()}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			stressOnce(t, cfg.opts)
		})
	}
}

func stressOnce(t *testing.T, opts []Option) {
	rng := rand.New(rand.NewSource(123))
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
	s := New(net, opts...)

	appCount := 0
	live := map[string]bool{}
	var liveNames []string

	submitRandom := func() {
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
		name := appName(appCount)
		app := App{
			Name:  name,
			Graph: appInst.Graph,
			Pins:  workload.PinRandomEnds(appInst.Graph, net, rng),
		}
		if rng.Intn(3) == 0 {
			app.QoS = QoS{Class: GuaranteedRate, MinRate: 0.1 + rng.Float64()*0.5, MinRateAvailability: 0.5, MaxPaths: 2}
		} else {
			app.QoS = QoS{Class: BestEffort, Priority: 0.5 + rng.Float64()*2, MaxPaths: 2}
		}
		if _, err := s.Submit(app); err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("op %d: %v", appCount, err)
			}
			return
		}
		live[name] = true
		liveNames = append(liveNames, name)
	}

	removeRandom := func() {
		if len(liveNames) == 0 {
			return
		}
		i := rng.Intn(len(liveNames))
		name := liveNames[i]
		liveNames = append(liveNames[:i], liveNames[i+1:]...)
		delete(live, name)
		if err := s.Remove(name); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
	}

	fluctuate := func() {
		scale := ElementScale{}
		for v := 0; v < net.NumNCPs(); v++ {
			if rng.Intn(4) == 0 {
				scale[placement.NCPElement(network.NCPID(v))] = 0.5 + rng.Float64()
			}
		}
		if _, err := s.ApplyFluctuation(scale); err != nil {
			t.Fatalf("fluctuation: %v", err)
		}
	}

	for op := 0; op < 120; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			submitRandom()
		case r < 8:
			removeRandom()
		default:
			fluctuate()
		}
		checkInvariants(t, s, net, live, op)
	}
}

func appName(i int) string { return "app-" + string(rune('a'+i%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func checkInvariants(t *testing.T, s *Scheduler, net *network.Network, live map[string]bool, op int) {
	t.Helper()
	if !s.BEAvailableCapacities().NonNegative() {
		t.Fatalf("op %d: BE capacity pool went negative", op)
	}
	all := append(s.GRApps(), s.BEApps()...)
	if len(all) != len(live) {
		t.Fatalf("op %d: scheduler tracks %d apps, expected %d", op, len(all), len(live))
	}
	// Aggregate demand across every admitted app stays within
	// max(scaled capacity, GR reservations) on every element: GR
	// reservations made before a downscale may legitimately exceed the
	// degraded capacity (ApplyFluctuation reports them as violated), but
	// the BE allocation on top must never overshoot what remains.
	ncpDemand := make([]resource.Vector, net.NumNCPs())
	ncpGR := make([]resource.Vector, net.NumNCPs())
	for v := range ncpDemand {
		ncpDemand[v] = resource.Vector{}
		ncpGR[v] = resource.Vector{}
	}
	linkDemand := make([]float64, net.NumLinks())
	linkGR := make([]float64, net.NumLinks())
	for _, pa := range all {
		if !live[pa.App.Name] {
			t.Fatalf("op %d: ghost app %q", op, pa.App.Name)
		}
		isGR := pa.App.QoS.Class == GuaranteedRate
		if isGR && pa.TotalRate() <= 0 {
			t.Fatalf("op %d: GR app %q with zero rate", op, pa.App.Name)
		}
		for _, path := range pa.Paths {
			if path.Rate < 0 || math.IsNaN(path.Rate) {
				t.Fatalf("op %d: invalid path rate %v", op, path.Rate)
			}
			for v := 0; v < net.NumNCPs(); v++ {
				ncpDemand[v].AddScaled(path.P.NCPLoad(network.NCPID(v)), path.Rate)
				if isGR {
					ncpGR[v].AddScaled(path.P.NCPLoad(network.NCPID(v)), path.Rate)
				}
			}
			for l := 0; l < net.NumLinks(); l++ {
				bits := path.P.LinkLoad(network.LinkID(l)) * path.Rate
				linkDemand[l] += bits
				if isGR {
					linkGR[l] += bits
				}
			}
		}
	}
	caps := s.scaledBaseCapacities()
	const tol = 1 + 1e-6
	for v := 0; v < net.NumNCPs(); v++ {
		for k, d := range ncpDemand[v] {
			bound := math.Max(caps.NCP[v][k], ncpGR[v][k])
			if d > bound*tol {
				t.Fatalf("op %d: NCP %d %s demand %v exceeds bound %v", op, v, k, d, bound)
			}
		}
	}
	for l := 0; l < net.NumLinks(); l++ {
		bound := math.Max(caps.Link[l], linkGR[l])
		if linkDemand[l] > bound*tol {
			t.Fatalf("op %d: link %d demand %v exceeds bound %v", op, l, linkDemand[l], bound)
		}
	}
}
