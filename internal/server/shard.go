package server

import (
	"strconv"
	"time"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/shard"
)

// The admission router. NewSharded edge-cuts the network into regions;
// each region runs its own scheduler and warm allocation solver behind
// its own lock and the group-commit queue the router builds for it, which
// reports to the scheduler's registry; cross-region applications are
// admitted against border-link capacity leases. Intra-region requests to
// different shards run concurrently, so the lock.wait spans an open-loop
// load harness induces shrink with the shard count.

// NewSharded returns a Server routing through an admission router over
// shards regions (at least 1). The server always carries a metrics
// registry (exposed on /metrics and via Metrics); every region's
// scheduler is wired to it before the caller-supplied options apply.
func NewSharded(netw *network.Network, shards int, opts ...core.Option) (*Server, error) {
	reg := obs.NewRegistry()
	opts = append([]core.Option{core.WithMetrics(reg)}, opts...)
	rebuild := func(sub *network.Network, _ int, ss *core.Snapshot) (*core.Scheduler, error) {
		return core.Rebuild(sub, ss, nil, opts...)
	}
	router, err := shard.Replay(netw, shards, nil, nil, rebuild)
	if err != nil {
		return nil, err
	}
	s := &Server{
		net:          netw,
		metrics:      reg,
		start:        time.Now(),
		rebuildShard: rebuild,
	}
	s.router.Store(router)
	reg.SetHelp("sparcle_shard_apps", "Admitted applications per shard and class.")
	reg.SetHelp("sparcle_shard_solver_flows", "Warm BE solver rows (flows) per shard.")
	reg.SetHelp("sparcle_border_leases", "Granted border-link capacity leases.")
	reg.SetHelp("sparcle_border_leased_bandwidth", "Leased bandwidth per border link.")
	reg.SetHelp("sparcle_border_utilization", "Leased fraction of each border link's scaled capacity.")
	reg.SetHelp(metricRecovery, "Duration of the last journal recovery in seconds.")
	return s, nil
}

// Router returns the admission router. Tests use it to reach individual
// shards.
func (s *Server) Router() *shard.Router { return s.rt() }

// EnableGroupCommit does nothing: the router builds every shard's
// group-commit queue (groups of at most 64) when it is built.
//
// Deprecated: the only remaining caller is the repository benchmark
// (benchmark/trace.go); the method goes when it stops calling it.
func (s *Server) EnableGroupCommit(core.GroupOptions) {}

// refreshMetrics renders every gauge from the live router: the
// scheduler gauges (core.RenderGauges over every region's residents, nnz
// summed over shards) and the sparcle_shard_* and sparcle_border_*
// series. /metrics and /debug/vars call it on every scrape, so the
// series are exact at observation time and whichever router is live —
// restored, replayed or following — shows exactly its residents, with
// nothing maintained on the admission path.
func (s *Server) refreshMetrics() {
	rt := s.rt()
	st := rt.Stats()
	nnz := 0
	for _, sh := range st.Shards {
		nnz += sh.SolverNNZ
		l := obs.L("shard", strconv.Itoa(sh.Region))
		s.metrics.Gauge("sparcle_shard_apps", l, obs.L("class", core.GuaranteedRate.String())).Set(float64(sh.GRApps))
		s.metrics.Gauge("sparcle_shard_apps", l, obs.L("class", core.BestEffort.String())).Set(float64(sh.BEApps))
		s.metrics.Gauge("sparcle_shard_solver_flows", l).Set(float64(sh.SolverFlows))
	}
	s.metrics.Gauge("sparcle_border_leases").Set(float64(st.Leases))
	for _, b := range st.Border {
		l := obs.L("link", b.Link)
		s.metrics.Gauge("sparcle_border_leased_bandwidth", l).Set(b.Leased)
		s.metrics.Gauge("sparcle_border_utilization", l).Set(b.Utilization)
	}
	core.RenderGauges(s.metrics, nnz, rt.AppsByShard(nil)...)
}

// shardAppView is appView plus the owning shard and, for a cross-region
// app, its lease and halves.
type shardAppView struct {
	appView
	Shard int        `json:"shard"`
	Cross *crossView `json:"cross,omitempty"`
}

// crossView describes a cross-region placement: the two regions, the
// leased border link, and each half's region-local placement.
type crossView struct {
	Regions    [2]int     `json:"regions"`
	BorderLink string     `json:"borderLink"`
	Bits       float64    `json:"bits"`
	Rate       float64    `json:"rate"`
	Halves     [2]appView `json:"halves"`
}

// shardView renders an admission Result.
func (s *Server) shardView(rt *shard.Router, res *shard.Result) shardAppView {
	if res.Cross == nil {
		return shardAppView{
			appView: appViewOn(rt.Region(res.Shard).View.Net, res.App),
			Shard:   res.Shard,
		}
	}
	c := res.Cross
	return shardAppView{
		appView: appView{
			Name:         res.App.App.Name,
			Class:        res.App.App.QoS.Class.String(),
			TotalRate:    c.Rate,
			Availability: c.Availability,
		},
		Shard: res.Shard,
		Cross: &crossView{
			Regions:    [2]int{c.A, c.B},
			BorderLink: c.BorderLink,
			Bits:       c.Bits,
			Rate:       c.Rate,
			Halves: [2]appView{
				appViewOn(rt.Region(c.A).View.Net, c.HalfA),
				appViewOn(rt.Region(c.B).View.Net, c.HalfB),
			},
		},
	}
}

// batchAppView renders a batch result's placement. The batch path
// reports intra apps with their shard's placement and cross apps as the
// logical view (paths live region-locally in the halves); either way
// the placement's own network is found through the router's registry.
func (s *Server) batchAppView(rt *shard.Router, pa *core.PlacedApp) appView {
	if len(pa.Paths) == 0 {
		// Logical cross-region view: no region-local paths to render.
		return appView{
			Name:         pa.App.Name,
			Class:        pa.App.QoS.Class.String(),
			TotalRate:    pa.TotalRate(),
			Availability: pa.Availability,
		}
	}
	netw := s.net
	if i, ok := rt.ShardOf(pa.App.Name); ok {
		netw = rt.Region(i).View.Net
	}
	return appViewOn(netw, pa)
}
