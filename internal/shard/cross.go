package shard

import (
	"fmt"
	"sort"
	"strings"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/taskgraph"
)

// This file classifies submitted applications against the partition and
// decomposes cross-region applications into two per-region halves joined
// by zero-requirement gateway CTs pinned at a border link's endpoints.
// The border link itself never appears in either half's sub-network; the
// traffic the cut TTs carry across it is reserved through the lease
// table instead.

// halfSep joins a logical application name with its region index to name
// a half inside a shard scheduler ("app@0", "app@3"). The router rejects
// submitted names containing it, so halves are unambiguous in journals
// and snapshots.
const halfSep = "@"

// gateway CT names inside decomposed halves.
const (
	gwInName  = "__gw_in"
	gwOutName = "__gw_out"
)

func halfName(logical string, region int) string {
	return fmt.Sprintf("%s%s%d", logical, halfSep, region)
}

// logicalOfHalf splits a half name back into (logical, region).
func logicalOfHalf(name string) (string, int, bool) {
	i := strings.LastIndex(name, halfSep)
	if i < 0 {
		return "", 0, false
	}
	var region int
	if _, err := fmt.Sscanf(name[i+len(halfSep):], "%d", &region); err != nil {
		return "", 0, false
	}
	return name[:i], region, true
}

// classify determines the regions an application's pins touch: none for
// an app without pins (which the router rejects), one for an intra-region
// app, two for a cross-region one; more is rejected (the lease protocol
// is pairwise).
func (p *Partitioning) classify(app core.App) (regions []int, err error) {
	seen := map[int]bool{}
	for ct, ncp := range app.Pins {
		if ncp < 0 || int(ncp) >= p.Parent.NumNCPs() {
			return nil, fmt.Errorf("shard: app %q pins CT %d to unknown NCP %d", app.Name, ct, ncp)
		}
		r := p.RegionOf(ncp)
		if !seen[r] {
			seen[r] = true
			regions = append(regions, r)
		}
	}
	sort.Ints(regions)
	if len(regions) > 2 {
		return nil, fmt.Errorf("shard: app %q pins span %d regions; at most 2 supported: %w",
			app.Name, len(regions), core.ErrRejected)
	}
	return regions, nil
}

// localizeApp translates an intra-region app's pins from parent NCP ids
// to the region view's local ids. For an identity view the app is
// returned untouched (same struct, same maps), keeping a one-region
// router bit-for-bit a lone scheduler.
func localizeApp(app core.App, view *network.RegionView) (core.App, error) {
	if view.Identity() || len(app.Pins) == 0 {
		return app, nil
	}
	pins := make(placement.Pins, len(app.Pins))
	for ct, ncp := range app.Pins {
		local, ok := view.LocalNCP(ncp)
		if !ok {
			return core.App{}, fmt.Errorf("shard: app %q pin on NCP %d outside its region", app.Name, ncp)
		}
		pins[ct] = local
	}
	out := app
	out.Pins = pins
	return out, nil
}

// crossPlan is the decomposition of one cross-region application.
type crossPlan struct {
	logical string
	class   core.Class
	a, b    int // region indices, a < b
	border  int // index into Partitioning.Border
	// bits is the total cut traffic per data unit (sum of cut TT bits in
	// both directions; an undirected border link shares its bandwidth).
	bits float64
	// halfA/halfB are the per-region half applications, pins already in
	// region-local ids, QoS set to a capped guaranteed-rate reservation
	// (RateCap filled in by the two-phase admit).
	halfA, halfB core.App
	// target is the end-to-end availability requirement (0 = none).
	target float64
	// linkFailProb is the border link's failure probability.
	linkFailProb float64
}

// sideAssignment maps every CT of app.Graph to region a or b: pinned CTs
// by their pin, unpinned CTs to the side of the nearest pinned CT in the
// undirected task graph (ties to the lower region index), CTs with no
// pinned ancestor/relative at all to the lower region index.
func sideAssignment(app core.App, p *Partitioning, a, b int) []int {
	g := app.Graph
	n := g.NumCTs()
	side := make([]int, n)
	dist := make([]int, n)
	for i := range side {
		side[i] = -1
		dist[i] = -1
	}
	var frontier []taskgraph.CTID
	for ct := 0; ct < n; ct++ {
		if ncp, ok := app.Pins[taskgraph.CTID(ct)]; ok {
			side[ct] = p.RegionOf(ncp)
			dist[ct] = 0
			frontier = append(frontier, taskgraph.CTID(ct))
		}
	}
	// Multi-source BFS; frontier kept in ascending CT order so that a CT
	// first reached at equal distance from both sides deterministically
	// takes the lower region index.
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		var next []taskgraph.CTID
		for _, u := range frontier {
			for _, tt := range g.AdjacentTTs(u) {
				t := g.TT(tt)
				v := t.From
				if v == u {
					v = t.To
				}
				if side[v] < 0 {
					side[v] = side[u]
					dist[v] = dist[u] + 1
					next = append(next, v)
				} else if dist[v] == dist[u]+1 && side[u] < side[v] {
					side[v] = side[u]
				}
			}
		}
		frontier = next
	}
	for ct := 0; ct < n; ct++ {
		if side[ct] < 0 {
			side[ct] = a
		}
	}
	_ = b
	return side
}

// planCross decomposes app (whose pins span regions a < b) against the
// chosen border link. Each side keeps its CTs and internal TTs; every
// cut TT is rerouted through a zero-requirement gateway CT pinned at
// that side's border endpoint (__gw_out collects traffic leaving the
// side, __gw_in injects traffic entering it), so each half remains a
// DAG and all cut traffic funnels through the leased link.
func planCross(app core.App, p *Partitioning, a, b, border int) (*crossPlan, error) {
	bl := p.Border[border]
	side := sideAssignment(app, p, a, b)

	plan := &crossPlan{
		logical:      app.Name,
		class:        app.QoS.Class,
		a:            a,
		b:            b,
		border:       border,
		linkFailProb: p.Parent.Link(bl.Link).FailProb,
	}
	switch app.QoS.Class {
	case core.GuaranteedRate:
		plan.target = app.QoS.MinRateAvailability
	case core.BestEffort:
		plan.target = app.QoS.Availability
	}

	build := func(region int, end network.NCPID) (core.App, float64, error) {
		g := app.Graph
		bld := taskgraph.NewBuilder(g.Name())
		local := make([]taskgraph.CTID, g.NumCTs())
		for i := range local {
			local[i] = -1
		}
		for ct := 0; ct < g.NumCTs(); ct++ {
			if side[ct] == region {
				c := g.CT(taskgraph.CTID(ct))
				local[ct] = bld.AddCT(c.Name, c.Req)
			}
		}
		gwIn, gwOut := taskgraph.CTID(-1), taskgraph.CTID(-1)
		cut := 0.0
		for tt := 0; tt < g.NumTTs(); tt++ {
			t := g.TT(taskgraph.TTID(tt))
			from, to := side[t.From] == region, side[t.To] == region
			switch {
			case from && to:
				bld.AddTT(t.Name, local[t.From], local[t.To], t.Bits)
			case from:
				if gwOut < 0 {
					gwOut = bld.AddCT(gwOutName, nil)
				}
				bld.AddTT(t.Name, local[t.From], gwOut, t.Bits)
				cut += t.Bits
			case to:
				if gwIn < 0 {
					gwIn = bld.AddCT(gwInName, nil)
				}
				bld.AddTT(t.Name, gwIn, local[t.To], t.Bits)
				cut += t.Bits
			}
		}
		sub, err := bld.Build()
		if err != nil {
			return core.App{}, 0, fmt.Errorf("shard: decompose %q for region %d: %w", app.Name, region, err)
		}
		view := p.Regions[region].View
		pins := placement.Pins{}
		for ct, ncp := range app.Pins {
			if side[ct] != region {
				continue
			}
			l, ok := view.LocalNCP(ncp)
			if !ok {
				return core.App{}, 0, fmt.Errorf("shard: app %q pin on NCP %d outside region %d", app.Name, ncp, region)
			}
			pins[local[ct]] = l
		}
		endLocal, ok := view.LocalNCP(end)
		if !ok {
			return core.App{}, 0, fmt.Errorf("shard: border endpoint %d outside region %d", end, region)
		}
		if gwIn >= 0 {
			pins[gwIn] = endLocal
		}
		if gwOut >= 0 {
			pins[gwOut] = endLocal
		}
		// Each half is admitted as a single-path guaranteed-rate
		// reservation: single path makes the two-phase rate trim exact
		// (per-path cap == total rate), and a reservation is what a lease
		// is. MinRate drives the side's min-rate availability analysis;
		// for BE apps an epsilon keeps it equivalent to at-least-one-path
		// availability.
		qos := core.QoS{
			Class:               core.GuaranteedRate,
			MinRate:             app.QoS.MinRate,
			MinRateAvailability: plan.target,
			MaxPaths:            1,
		}
		if app.QoS.Class == core.BestEffort {
			qos.MinRate = 1e-9
		}
		half := core.App{
			Name:  halfName(app.Name, region),
			Graph: sub,
			Pins:  pins,
			QoS:   qos,
		}
		return half, cut, nil
	}

	halfA, cutA, err := build(a, bl.EndA)
	if err != nil {
		return nil, err
	}
	halfB, cutB, err := build(b, bl.EndB)
	if err != nil {
		return nil, err
	}
	if cutA != cutB {
		return nil, fmt.Errorf("shard: app %q cut mismatch (%v vs %v)", app.Name, cutA, cutB)
	}
	if cutA <= 0 {
		// Pins span two regions but no TT crosses the cut: the graph's
		// components are region-pure, so no lease is needed — yet the two
		// halves still form one logical app. Reject rather than silently
		// splitting; such apps should be submitted as two.
		return nil, fmt.Errorf("shard: app %q spans two regions without cross traffic: %w",
			app.Name, core.ErrRejected)
	}
	plan.bits = cutA
	plan.halfA, plan.halfB = halfA, halfB
	return plan, nil
}

// chooseBorder picks the border link between regions a < b with the most
// unleased bandwidth (ties to the lowest parent link id). ok is false
// when the regions are not adjacent.
func chooseBorder(p *Partitioning, t *LeaseTable, a, b int) (int, bool) {
	best, bestAvail := -1, -1.0
	for i, bl := range p.Border {
		if bl.A != a || bl.B != b {
			continue
		}
		if avail := t.Available(i); avail > bestAvail {
			best, bestAvail = i, avail
		}
	}
	return best, best >= 0
}
