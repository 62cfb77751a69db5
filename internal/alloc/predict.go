package alloc

import (
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
)

// Footprint summarizes which network elements an already-placed BE
// application loads, with its priority. It is the input to the Theorem 3
// capacity prediction. NCPs and Links are sorted and duplicate-free.
type Footprint struct {
	Priority float64
	NCPs     []network.NCPID
	Links    []network.LinkID
}

// FootprintOf collects the elements loaded by any of an application's
// task-assignment paths.
func FootprintOf(priority float64, paths []placement.Path) Footprint {
	fp := Footprint{Priority: priority}
	for _, path := range paths {
		fp.NCPs = append(fp.NCPs, path.P.LoadedNCPs()...)
		fp.Links = append(fp.Links, path.P.LoadedLinks()...)
	}
	slices.Sort(fp.NCPs)
	fp.NCPs = slices.Compact(fp.NCPs)
	slices.Sort(fp.Links)
	fp.Links = slices.Compact(fp.Links)
	return fp
}

// Predict implements eq. (6): the capacity of every element as seen by a
// new BE application with the given priority is the element's BE-class
// capacity scaled by priority / (priority + sum of priorities already
// placed on that element). Elements nobody uses are offered in full. caps
// is not mutated.
//
// The placed priority of an element is summed in `placed` order — a
// footprint names an element at most once — so the result depends only on
// the footprints and their order, never on how the caller arrived at them:
// a scheduler rebuilt from a snapshot predicts the same bits as the one
// that wrote it.
func Predict(caps *network.Capacities, placed []Footprint, priority float64) *network.Capacities {
	out := caps.Clone()
	// One dense total per element (NCPs first, then links): O(sum of
	// footprint sizes) to fill, no hashing.
	total := make([]float64, len(out.NCP)+len(out.Link))
	ncpTotal, linkTotal := total[:len(out.NCP)], total[len(out.NCP):]
	for i := range placed {
		p := placed[i].Priority
		for _, v := range placed[i].NCPs {
			ncpTotal[v] += p
		}
		for _, l := range placed[i].Links {
			linkTotal[l] += p
		}
	}
	for v, t := range ncpTotal {
		if t != 0 {
			scaleVector(out.NCP[v], priority/(priority+t))
		}
	}
	for l, t := range linkTotal {
		if t != 0 {
			out.Link[l] *= priority / (priority + t)
		}
	}
	return out
}

func scaleVector(v resource.Vector, s float64) {
	for k := range v {
		v[k] *= s
	}
}
