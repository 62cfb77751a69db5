package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sparcle/internal/obs"
	"sparcle/internal/workload"
)

// BenchmarkChurn measures the cost of one churn event — withdraw the
// oldest application, admit a fresh one — against a scheduler holding a
// steady-state population of N applications (3 BE : 1 GR) on a mesh.
func BenchmarkChurn(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		if testing.Short() && n > 32 {
			continue
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			churnBench(b, n, nil)
		})
	}
}

// BenchmarkChurnServed is BenchmarkChurn with a metrics
// registry attached — the configuration the server runs — so the cost of
// recording metrics per operation has a twin: ns/op, B/op and allocs/op
// of one remove + admit at K residents must not grow with K beyond the
// solve.
func BenchmarkChurnServed(b *testing.B) {
	for _, k := range []int{16, 256} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			churnBench(b, k, []Option{WithMetrics(obs.NewRegistry())})
		})
	}
}

func churnBench(b *testing.B, n int, opts []Option) {
	rng := rand.New(rand.NewSource(9))
	inst, err := workload.Generate(workload.GenConfig{
		Shape:    workload.ShapeLinear,
		Topology: workload.TopoMesh,
		Regime:   workload.Balanced,
		NumNCPs:  12,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	net := inst.Net
	s := New(net, opts...)

	// App templates are generated once; churn events reuse them under
	// fresh names so graph generation stays out of the measured loop.
	type tmpl struct {
		app App
	}
	var templates []tmpl
	for i := 0; i < 8; i++ {
		shape := workload.ShapeLinear
		if i%2 == 0 {
			shape = workload.ShapeDiamond
		}
		ti, err := workload.Generate(workload.GenConfig{
			Shape:    shape,
			Topology: workload.TopoMesh,
			Regime:   workload.Balanced,
			NumNCPs:  12,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		app := App{Graph: ti.Graph, Pins: workload.PinRandomEnds(ti.Graph, net, rng)}
		if i%4 == 3 {
			app.QoS = QoS{Class: GuaranteedRate, MinRate: 0.01, MinRateAvailability: 0.5, MaxPaths: 2}
		} else {
			app.QoS = QoS{Class: BestEffort, Priority: 0.5 + rng.Float64()*2, MaxPaths: 2}
		}
		templates = append(templates, tmpl{app: app})
	}

	seq := 0
	var live []string
	admit := func() {
		t := templates[seq%len(templates)]
		app := t.app
		app.Name = fmt.Sprintf("app-%d", seq)
		seq++
		if _, err := s.Submit(app); err != nil {
			if errors.Is(err, ErrRejected) {
				return
			}
			b.Fatal(err)
		}
		live = append(live, app.Name)
	}

	for len(live) < n {
		prev := len(live)
		admit()
		if len(live) == prev && seq > 4*n {
			b.Fatalf("could not admit %d apps (stuck at %d)", n, len(live))
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := live[0]
		live = live[1:]
		if err := s.Remove(name); err != nil {
			b.Fatal(err)
		}
		admit()
	}
}

// BenchmarkGRRelease measures what a GR departure costs the BE pool: one
// op withdraws the oldest of n GR residents (its reservation leaves the
// middle of the GR list, so the pool is recomputed) and replays the same
// placement back in at the end of the list, as a journal replay would.
func BenchmarkGRRelease(b *testing.B) {
	for _, n := range []int{8, 128, 512} {
		if testing.Short() && n > 8 {
			continue
		}
		b.Run(fmt.Sprintf("GR=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			inst, err := workload.Generate(workload.GenConfig{
				Shape:    workload.ShapeLinear,
				Topology: workload.TopoMesh,
				Regime:   workload.Balanced,
				NumNCPs:  12,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			s := New(inst.Net)
			for seq := 0; len(s.gr) < n; seq++ {
				if seq > 4*n {
					b.Fatalf("could not admit %d GR apps (stuck at %d)", n, len(s.gr))
				}
				ti, err := workload.Generate(workload.GenConfig{
					Shape:    workload.ShapeDiamond,
					Topology: workload.TopoMesh,
					Regime:   workload.Balanced,
					NumNCPs:  12,
				}, rng)
				if err != nil {
					b.Fatal(err)
				}
				app := App{
					Name:  fmt.Sprintf("gr-%d", seq),
					Graph: ti.Graph,
					Pins:  workload.PinRandomEnds(ti.Graph, inst.Net, rng),
					QoS:   QoS{Class: GuaranteedRate, MinRate: 0.001, RateCap: 0.001, MinRateAvailability: 0.5, MaxPaths: 2},
				}
				if _, err := s.Submit(app); err != nil && !errors.Is(err, ErrRejected) {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pa := s.gr[0]
				if err := s.Remove(pa.App.Name); err != nil {
					b.Fatal(err)
				}
				s.admitReserved(pa)
			}
		})
	}
}
