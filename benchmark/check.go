package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/scenario"
	"sparcle/internal/shard"
	"sparcle/internal/taskgraph"
)

// serverSeed is sparcle-server's default -seed, which the child processes
// run with; the in-process references and the traced pass use the same.
const serverSeed = 1

// appView is what the benchmark compares of one GET /apps entry.
type appView struct {
	Name      string     `json:"name"`
	Class     string     `json:"class"`
	TotalRate float64    `json:"totalRate"`
	Paths     []pathView `json:"paths"`
	Shard     int        `json:"shard"`
}

type pathView struct {
	Rate  float64           `json:"rate"`
	Hosts map[string]string `json:"hosts"`
}

func viewOf(netw *network.Network, pa *core.PlacedApp, shardIdx int) appView {
	v := appView{Name: pa.App.Name, Class: pa.App.QoS.Class.String(), TotalRate: pa.TotalRate(), Shard: shardIdx}
	for _, p := range pa.Paths {
		hosts := map[string]string{}
		for ct := 0; ct < pa.App.Graph.NumCTs(); ct++ {
			id := taskgraph.CTID(ct)
			hosts[pa.App.Graph.CT(id).Name] = netw.NCP(p.P.Host(id)).Name
		}
		v.Paths = append(v.Paths, pathView{Rate: p.Rate, Hosts: hosts})
	}
	return v
}

func buildApp(body []byte, netw *network.Network) (core.App, error) {
	var spec scenario.AppSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return core.App{}, err
	}
	return scenario.BuildApp(spec, netw)
}

// reference replays bodies, in order, on an in-process scheduler (or
// shard router) configured like the server and returns its listing.
// Admission-control rejections are verdicts; any other error fails.
func reference(w *workload, netw *network.Network, bodies [][]byte) ([]appView, error) {
	var views []appView
	if w.Shards > 1 {
		rt, err := newRouter(netw, w.Shards)
		if err != nil {
			return nil, err
		}
		for _, b := range bodies {
			app, err := buildApp(b, netw)
			if err != nil {
				return nil, err
			}
			if _, err := rt.Submit(app, nil); err != nil && !errors.Is(err, core.ErrRejected) {
				return nil, err
			}
		}
		for i, apps := range rt.AppsByShard(nil) {
			for _, pa := range apps {
				views = append(views, viewOf(rt.Region(i).View.Net, pa, i))
			}
		}
		return views, nil
	}
	sched := core.New(netw, core.WithRandSeed(serverSeed))
	for _, b := range bodies {
		app, err := buildApp(b, netw)
		if err != nil {
			return nil, err
		}
		if _, err := sched.Submit(app); err != nil && !errors.Is(err, core.ErrRejected) {
			return nil, err
		}
	}
	for _, pa := range append(sched.GRApps(), sched.BEApps()...) {
		views = append(views, viewOf(netw, pa, 0))
	}
	return views, nil
}

func newRouter(netw *network.Network, k int) (*shard.Router, error) {
	return shard.New(netw, k, func(sub *network.Network, region int) core.Control {
		return core.New(sub, core.WithRandSeed(serverSeed))
	})
}

// rateTol is the relative tolerance on rates: the server and the
// reference run the same code, but the server's group commit solves a
// batch of one where the reference solves a single submit.
const rateTol = 1e-9

// sameListing reports the first difference between two listings, nil
// when every application has the same class, hosts and rates.
func sameListing(got, want []appView) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d applications listed, reference has %d", len(got), len(want))
	}
	byName := func(v []appView) {
		sort.Slice(v, func(i, j int) bool { return v[i].Name < v[j].Name })
	}
	byName(got)
	byName(want)
	near := func(a, b float64) bool { return math.Abs(a-b) <= rateTol*math.Max(math.Abs(a), math.Abs(b)) }
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Class != w.Class || g.Shard != w.Shard || len(g.Paths) != len(w.Paths) || !near(g.TotalRate, w.TotalRate) {
			return fmt.Errorf("application %q: got %+v, reference %+v", w.Name, g, w)
		}
		for p := range g.Paths {
			if !near(g.Paths[p].Rate, w.Paths[p].Rate) || len(g.Paths[p].Hosts) != len(w.Paths[p].Hosts) {
				return fmt.Errorf("application %q path %d: got %+v, reference %+v", w.Name, p, g.Paths[p], w.Paths[p])
			}
			for ct, host := range w.Paths[p].Hosts {
				if g.Paths[p].Hosts[ct] != host {
					return fmt.Errorf("application %q path %d: CT %q on %q, reference %q", w.Name, p, ct, g.Paths[p].Hosts[ct], host)
				}
			}
		}
	}
	return nil
}
