package expt

import (
	"math"
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/placement"
)

// Energy model (§V.B.2, Fig. 9): CPU power draw is proportional to CPU
// utilization [11] and radio power to the transmit/receive data rate [19].
// The constants set the scale only — energy-efficiency comparisons between
// algorithms are scale free.
const (
	// cpuPowerW is the power of a fully utilized NCP, watts.
	cpuPowerW = 2.0
	// radioPowerWPerMb is the combined tx+rx power per megabit-per-second
	// crossing a link, watts.
	radioPowerWPerMb = 0.8
)

// EnergyEfficiency returns data units processed per joule for a placement
// running at the given rate: rate / total power. A zero rate (or a failed
// placement) has zero efficiency.
func EnergyEfficiency(p *placement.Placement, caps *network.Capacities, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	// Sum in element id order, as a scan of the whole network would.
	ncps, links := slices.Clone(p.LoadedNCPs()), slices.Clone(p.LoadedLinks())
	slices.Sort(ncps)
	slices.Sort(links)
	power := 0.0
	for _, v := range ncps {
		util := 0.0
		for k, a := range p.NCPLoad(v) {
			c := caps.Get(v, k)
			if c <= 0 {
				return 0 // placed on a dead element: no useful work
			}
			if u := rate * a / c; u > util {
				util = u
			}
		}
		power += cpuPowerW * math.Min(util, 1)
	}
	for _, l := range links {
		power += radioPowerWPerMb * rate * p.LinkLoad(l)
	}
	if power <= 0 {
		return 0
	}
	return rate / power
}
