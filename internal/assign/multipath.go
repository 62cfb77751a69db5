package assign

import (
	"errors"
	"fmt"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// ErrNoMorePaths is reported (wrapped) by MultiPath when not even one
// positive-rate path exists under the given capacities.
var ErrNoMorePaths = errors.New("assign: no task assignment path with positive rate")

// MultiPath finds up to maxPaths task assignment paths for one application
// (§IV.D): it repeatedly runs alg, records the path at its full bottleneck
// rate, subtracts the consumed resources from a private copy of caps, and
// repeats until the next path would have zero rate, the algorithm reports
// infeasibility, or maxPaths is reached.
//
// It returns the paths (each with the rate it can carry by itself, given
// the paths before it) and the residual capacities after all of them. caps
// itself is never mutated. If the first assignment fails or yields zero
// rate, the error wraps ErrNoMorePaths.
func MultiPath(alg placement.Algorithm, g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities, maxPaths int) ([]placement.Path, *network.Capacities, error) {
	return multiPath(alg, g, pins, net, caps, maxPaths, 1)
}

// MultiPathDiverse behaves like MultiPath but biases every path after the
// first away from the elements earlier paths already use: during
// assignment (only), the residual capacity of used elements is scaled by
// diversityBias in (0, 1], so the greedy prefers untouched NCPs and links
// when alternatives exist. Rates and reservations still use the true
// residual capacities.
//
// Element-disjoint paths fail independently, so trading some rate for
// diversity raises the availability that §IV.C's multi-path loop is
// chasing; the paper's plain iteration (MultiPath) happily reuses a strong
// shared element and caps availability at that element's own. The
// diversity ablation benchmark quantifies the trade.
func MultiPathDiverse(alg placement.Algorithm, g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities, maxPaths int, diversityBias float64) ([]placement.Path, *network.Capacities, error) {
	if diversityBias <= 0 || diversityBias > 1 {
		return nil, nil, fmt.Errorf("assign: diversity bias %v outside (0, 1]", diversityBias)
	}
	return multiPath(alg, g, pins, net, caps, maxPaths, diversityBias)
}

func multiPath(alg placement.Algorithm, g *taskgraph.Graph, pins placement.Pins, net *network.Network, caps *network.Capacities, maxPaths int, bias float64) ([]placement.Path, *network.Capacities, error) {
	if maxPaths < 1 {
		return nil, nil, fmt.Errorf("assign: maxPaths must be >= 1, got %d", maxPaths)
	}
	residual := caps.Clone()
	var paths []placement.Path
	for len(paths) < maxPaths {
		p, err := alg.Assign(g, pins, net, diverseView(residual, paths, bias))
		if err != nil {
			if len(paths) > 0 {
				break
			}
			return nil, nil, fmt.Errorf("%w: %w", ErrNoMorePaths, err)
		}
		rate := p.Rate(residual)
		if rate <= 0 {
			if len(paths) > 0 {
				break
			}
			return nil, nil, fmt.Errorf("%w (rate %v)", ErrNoMorePaths, rate)
		}
		p.Subtract(residual, rate)
		paths = append(paths, placement.Path{P: p, Rate: rate})
	}
	return paths, residual, nil
}

// diverseView returns the capacities the assignment algorithm should see
// for the next path: residual itself at bias 1 or before the first path,
// else a copy with the elements earlier paths load scaled by bias, to steer
// the greedy toward untouched elements.
func diverseView(residual *network.Capacities, paths []placement.Path, bias float64) *network.Capacities {
	if bias >= 1 || len(paths) == 0 {
		return residual
	}
	view := residual.Clone()
	usedNCP := make([]bool, view.NumNCPs())
	usedLink := make([]bool, len(view.Link))
	for _, path := range paths {
		for _, v := range path.P.LoadedNCPs() {
			usedNCP[v] = true
		}
		for _, l := range path.P.LoadedLinks() {
			usedLink[l] = true
		}
	}
	for v, used := range usedNCP {
		if used {
			view.ScaleNCP(network.NCPID(v), bias)
		}
	}
	for l, used := range usedLink {
		if used {
			view.Link[l] *= bias
		}
	}
	return view
}
