package core

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sparcle/internal/obs"
	"sparcle/internal/workload"
)

// BenchmarkSubmitSpans is the cost of watching: the same best-effort
// admission stream — withdraw the oldest of 16 residents, admit a fresh
// one — untraced ("off") and with a span tracer streaming every span,
// decisions included, as JSONL to io.Discard ("on").
func BenchmarkSubmitSpans(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(9))
			cfg := workload.GenConfig{Shape: workload.ShapeLinear, Topology: workload.TopoMesh, Regime: workload.Balanced, NumNCPs: 12}
			inst, err := workload.Generate(cfg, rng)
			if err != nil {
				b.Fatal(err)
			}
			s := New(inst.Net)
			if traced {
				st := obs.NewSpanTracer(obs.SpanOptions{JSONL: io.Discard})
				defer st.Close()
				s.SetSpans(st)
			}
			var templates []App
			for i := 0; i < 8; i++ {
				ti, err := workload.Generate(cfg, rng)
				if err != nil {
					b.Fatal(err)
				}
				templates = append(templates, App{
					Graph: ti.Graph, Pins: workload.PinRandomEnds(ti.Graph, inst.Net, rng),
					QoS: QoS{Class: BestEffort, Priority: 0.5 + rng.Float64()*2, MaxPaths: 2},
				})
			}
			var live []string
			admit := func(seq int) {
				app := templates[seq%len(templates)]
				app.Name = fmt.Sprintf("app-%d", seq)
				if _, err := s.Submit(app); err != nil {
					b.Fatal(err)
				}
				live = append(live, app.Name)
			}
			for seq := 0; seq < 16; seq++ {
				admit(seq)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Remove(live[0]); err != nil {
					b.Fatal(err)
				}
				live = live[1:]
				admit(16 + i)
			}
		})
	}
}
