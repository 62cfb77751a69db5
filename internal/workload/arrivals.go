package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// This file generates arrival processes and size distributions for
// open-loop load experiments: Poisson arrivals and bounded-Pareto
// heavy-tailed application sizes. Open-loop means the generator never
// waits for the system — the next arrival is scheduled from the process
// alone, so an overloaded admission path accumulates queueing delay
// instead of silently throttling the offered load (the
// coordinated-omission trap of closed-loop harnesses).

// Poisson is a homogeneous Poisson arrival process of the given rate
// (arrivals per second). All randomness flows through the explicit rng,
// matching the package convention.
type Poisson struct {
	rate float64
	rng  *rand.Rand
}

// NewPoisson returns a Poisson process; rate must be positive and finite.
func NewPoisson(rate float64, rng *rand.Rand) (*Poisson, error) {
	if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		return nil, fmt.Errorf("workload: invalid Poisson rate %v", rate)
	}
	return &Poisson{rate: rate, rng: rng}, nil
}

// Next draws the inter-arrival gap to the next event: Exp(rate).
func (p *Poisson) Next() time.Duration {
	return time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second))
}

// BoundedPareto draws from the bounded Pareto distribution on [lo, hi]
// with tail index alpha — the canonical heavy-tailed size distribution of
// workload studies (most draws near lo, rare draws up to hi). Smaller
// alpha means a heavier tail; alpha around 1.1-1.5 reproduces the
// "elephants and mice" mix. Inverse-CDF sampling:
//
//	x = (-(U*hi^a - U*lo^a - hi^a) / (hi^a * lo^a))^(-1/a)
func BoundedPareto(rng *rand.Rand, alpha, lo, hi float64) float64 {
	if !(alpha > 0) || !(lo > 0) || !(hi > lo) {
		return lo
	}
	u := rng.Float64()
	la, ha := math.Pow(lo, alpha), math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	// Guard the float edges: u -> 1 can land a hair outside [lo, hi].
	return math.Min(math.Max(x, lo), hi)
}
