package assign

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// TestConcurrentAssign: assignments of different applications on
// different networks, running at once, each place exactly as they do
// one at a time — every CT host, every route and the rate bit for bit.
// Each assignment evaluates in scratch recycled through one pool, so
// under -race this is the hammer for that pool.
func TestConcurrentAssign(t *testing.T) {
	type instance struct {
		g    *taskgraph.Graph
		pins placement.Pins
		net  *network.Network
		caps *network.Capacities
		alg  placement.Algorithm
		want placement.Encoded
		rate float64
	}
	rng := rand.New(rand.NewSource(91))
	var insts []instance
	for i := 0; i < 12; i++ {
		g, pins, net, caps := randomInstance(t, rng)
		var alg placement.Algorithm = Sparcle{}
		if i%4 == 3 {
			alg = Ordered{AlgName: "ord", FullGamma: true, Order: identityOrderFor(g)}
		}
		p, err := alg.Assign(g, pins, net, caps)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{g, pins, net, caps, alg, enc, p.Rate(caps)})
	}
	const workers, rounds = 4, 24
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*7 + r) % len(insts)
				in := insts[i]
				p, err := in.alg.Assign(in.g, in.pins, in.net, in.caps)
				if err != nil {
					errs <- fmt.Errorf("worker %d, instance %d: %v", w, i, err)
					return
				}
				enc, err := p.Encode()
				if err != nil {
					errs <- err
					return
				}
				if rate := p.Rate(in.caps); !reflect.DeepEqual(enc, in.want) || math.Float64bits(rate) != math.Float64bits(in.rate) {
					errs <- fmt.Errorf("worker %d, instance %d: placed %+v at rate %v, serially %+v at %v", w, i, enc, rate, in.want, in.rate)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
