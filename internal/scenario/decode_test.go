package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// generatedSpec renders an application shaped like the benchmark's load
// generator: a source and a sink pinned by NCP name around a chain of
// work CTs, best-effort with a priority or guaranteed-rate with a minimum
// rate, amounts spread over many magnitudes.
func generatedSpec(rng *rand.Rand, n int) AppSpec {
	amount := func() float64 { return math.Pow(10, rng.Float64()*30-10) * rng.Float64() }
	pin := func() string { return fmt.Sprintf("n%02d", rng.Intn(64)) }
	spec := AppSpec{Name: fmt.Sprintf("app-%d", n)}
	if rng.Intn(2) == 0 {
		spec.QoS = QoSSpec{Class: "guaranteed-rate", MinRate: amount(), MinRateAvailability: 0.95, MaxPaths: 3}
	} else {
		spec.QoS = QoSSpec{Class: "best-effort", Priority: 1 + amount()}
	}
	spec.CTs = append(spec.CTs, CTSpec{Name: "in", Host: pin()})
	prev := "in"
	for i := 0; i < 2+rng.Intn(7); i++ {
		ct := fmt.Sprintf("w%d", i)
		spec.CTs = append(spec.CTs, CTSpec{Name: ct, Req: map[string]float64{"cpu": amount()}})
		spec.TTs = append(spec.TTs, TTSpec{From: prev, To: ct, Bits: amount()})
		prev = ct
	}
	spec.CTs = append(spec.CTs, CTSpec{Name: "out", Host: pin()})
	spec.TTs = append(spec.TTs, TTSpec{From: prev, To: "out", Bits: amount()})
	return spec
}

// TestGeneratedBodiesTakeTheOnePassPath marshals generator-shaped specs
// (the only bodies the benchmark sends) and requires every one to decode
// on the one-pass path, to the value the reflective decode returns.
func TestGeneratedBodiesTakeTheOnePassPath(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for n := 0; n < 2000; n++ {
		body, err := json.Marshal(generatedSpec(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeCanonical(body)
		if !ok {
			t.Fatalf("body %d left the one-pass path: %s", n, body)
		}
		want, err := decodeReflective(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: one-pass %+v, reflective %+v", n, got, want)
		}
	}
}

// BenchmarkDecodeApp is the decode layer's twin: a place_bound-shaped
// body (two work CTs, best-effort) on the one-pass path, and the same
// body with an escaped name, which the reflective decode takes.
func BenchmarkDecodeApp(b *testing.B) {
	spec := AppSpec{
		Name: "app-1234",
		CTs: []CTSpec{
			{Name: "in", Host: "n17"},
			{Name: "w0", Req: map[string]float64{"cpu": 131.27459815734104}},
			{Name: "w1", Req: map[string]float64{"cpu": 102.81733005785437}},
			{Name: "out", Host: "n42"},
		},
		TTs: []TTSpec{
			{From: "in", To: "w0", Bits: 0.0013545068337488496},
			{From: "w0", To: "w1", Bits: 0.0010429401349683212},
			{From: "w1", To: "out", Bits: 0.0018873862082003218},
		},
		QoS: QoSSpec{Class: "best-effort", Priority: 1.8459398264730035},
	}
	canonical, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	spec.Name = "app-<1234>" // json.Marshal escapes < and >
	escaped, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{{"canonical", canonical}, {"escaped", escaped}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeApp(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
