package avail

import (
	"sort"
)

// Importance ranks a network element's criticality to an application's
// availability by its Birnbaum importance:
//
//	B(e) = P(at least one path up | e up) - P(at least one path up | e down)
//
// the availability lost the instant element e fails. Operators use the
// ranking to decide which elements to harden or to provision around.
type Importance struct {
	Element  int
	Birnbaum float64
}

// BirnbaumImportance computes the importance of every fallible element
// appearing in the paths, sorted by decreasing Birnbaum value (ties by
// element id). It relies on the exact at-least-one analysis and inherits
// its MaxPaths limit.
func BirnbaumImportance(paths []Path, fp FailProbs) ([]Importance, error) {
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	elems := map[int]bool{}
	for _, p := range paths {
		for _, e := range p.Elements {
			if fp[e] > 0 {
				elems[e] = true
			}
		}
	}
	out := make([]Importance, 0, len(elems))
	for e := range elems {
		up, err := AtLeastOne(paths, forced(fp, e, 0))
		if err != nil {
			return nil, err
		}
		down, err := AtLeastOne(paths, forced(fp, e, 1))
		if err != nil {
			return nil, err
		}
		out = append(out, Importance{Element: e, Birnbaum: up - down})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Birnbaum != out[j].Birnbaum {
			return out[i].Birnbaum > out[j].Birnbaum
		}
		return out[i].Element < out[j].Element
	})
	return out, nil
}

// forced returns fp with element e's failure probability pinned to p.
func forced(fp FailProbs, e int, p float64) FailProbs {
	out := make(FailProbs, len(fp))
	for k, v := range fp {
		out[k] = v
	}
	out[e] = p
	return out
}
