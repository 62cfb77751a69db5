package alloc

import (
	"slices"

	"sparcle/internal/network"
	"sparcle/internal/placement"
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

// Prediction is a reusable destination for eq. (6): the predicted
// capacities and the per-element totals, zero between predictions. A
// prediction lives until the next one into the same Prediction; the
// Scheduler owns one per region.
type Prediction struct {
	caps  network.Capacities
	total []float64
	// links lists the links the footprints name, each once, in the order
	// they were first named.
	links []network.LinkID
}

// Predict implements eq. (6) into d: the capacity of every element as seen
// by a new BE application with the given priority is the element's
// BE-class capacity scaled by priority / (priority + sum of priorities
// already placed on that element). Elements nobody uses are offered in
// full. caps is not mutated; the result is d's own copy of it.
//
// The placed priority of an element is summed in `placed` order — a
// footprint names an element at most once — so the result depends only on
// the footprints and their order, never on how the caller arrived at them:
// a scheduler rebuilt from a snapshot predicts the same bits as the one
// that wrote it.
func (d *Prediction) Predict(caps *network.Capacities, placed []Footprint, priority float64) *network.Capacities {
	out := caps.CloneInto(&d.caps)
	n := out.NumNCPs()
	// One dense total per element (NCPs first, then links): O(sum of
	// footprint sizes) to fill, no hashing. Each total is zeroed as it is
	// applied. The NCP totals are scanned; the links named are listed on
	// first touch and applied from that list, so a mesh's thousands of
	// links cost nothing unless named.
	if m := n + len(out.Link); len(d.total) != m {
		d.total = make([]float64, m)
	}
	ncpTotal, linkTotal := d.total[:n], d.total[n:]
	d.links = d.links[:0]
	for i := range placed {
		p := placed[i].Priority
		for _, v := range placed[i].NCPs {
			ncpTotal[v] += p
		}
		for _, l := range placed[i].Links {
			if linkTotal[l] == 0 {
				d.links = append(d.links, l)
			}
			linkTotal[l] += p
		}
	}
	for v, t := range ncpTotal {
		if t != 0 {
			out.ScaleNCP(network.NCPID(v), priority/(priority+t))
			ncpTotal[v] = 0
		}
	}
	for _, l := range d.links {
		if t := linkTotal[l]; t != 0 {
			out.Link[l] *= priority / (priority + t)
			linkTotal[l] = 0
		}
	}
	return out
}

// Predict is eq. (6) into a fresh Prediction.
func Predict(caps *network.Capacities, placed []Footprint, priority float64) *network.Capacities {
	return new(Prediction).Predict(caps, placed, priority)
}
