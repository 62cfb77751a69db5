package alloc

import (
	"maps"
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

// Prediction is a reusable destination for eq. (6): the predicted
// capacities and the per-element totals, zero between predictions. A
// prediction lives until the next one into the same Prediction; the
// Scheduler owns one per region.
//
// The predicted capacities copy the input's link array but share its NCP
// vectors: NCP v gets its own copy, in mine[v] (reused across
// predictions), only when eq. (6) scales it or Subtract reserves on it.
type Prediction struct {
	caps  network.Capacities
	mine  []resource.Vector
	owned []bool // owned[v]: caps.NCP[v] is mine[v] in this prediction
	total []float64
	// links lists the links the footprints name, each once, in the order
	// they were first named.
	links []network.LinkID
}

// Predict implements eq. (6) into d: the capacity of every element as seen
// by a new BE application with the given priority is the element's
// BE-class capacity scaled by priority / (priority + sum of priorities
// already placed on that element). Elements nobody uses are offered in
// full. caps is not mutated.
//
// The result shares the NCP vectors of caps that eq. (6) leaves alone, so
// it may be changed only through d.Subtract, and caps must not change
// while the result is in use.
//
// The placed priority of an element is summed in `placed` order — a
// footprint names an element at most once — so the result depends only on
// the footprints and their order, never on how the caller arrived at them:
// a scheduler rebuilt from a snapshot predicts the same bits as the one
// that wrote it.
func (d *Prediction) Predict(caps *network.Capacities, placed []Footprint, priority float64) *network.Capacities {
	out := &d.caps
	n := len(caps.NCP)
	out.Link = append(out.Link[:0], caps.Link...)
	out.NCP = append(out.NCP[:0], caps.NCP...)
	if len(d.owned) != n {
		d.mine, d.owned = make([]resource.Vector, n), make([]bool, n)
	}
	clear(d.owned)
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
			scaleVector(d.own(network.NCPID(v)), priority/(priority+t))
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

// Subtract reserves p's resources at rate in the last prediction into d,
// as p.Subtract does, first giving each NCP p loads a vector of d's own.
func (d *Prediction) Subtract(p *placement.Placement, rate float64) {
	for _, v := range p.LoadedNCPs() {
		d.own(v)
	}
	p.Subtract(&d.caps, rate)
}

// own makes NCP v's predicted vector d's own, copying the shared one into
// d's reused map the first time in a prediction, and returns it.
func (d *Prediction) own(v network.NCPID) resource.Vector {
	if !d.owned[v] {
		if d.mine[v] == nil {
			d.mine[v] = resource.Vector{}
		}
		clear(d.mine[v])
		maps.Copy(d.mine[v], d.caps.NCP[v])
		d.caps.NCP[v], d.owned[v] = d.mine[v], true
	}
	return d.caps.NCP[v]
}

// Predict is eq. (6) into a fresh Prediction. The result shares caps' NCP
// vectors where eq. (6) leaves them alone: read it, or Clone it before
// changing it.
func Predict(caps *network.Capacities, placed []Footprint, priority float64) *network.Capacities {
	return new(Prediction).Predict(caps, placed, priority)
}

func scaleVector(v resource.Vector, s float64) {
	for k := range v {
		v[k] *= s
	}
}
