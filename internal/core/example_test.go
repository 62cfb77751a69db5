package core_test

import (
	"fmt"
	"log"

	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// ExampleNew schedules one best-effort application on a tiny edge
// network and prints its allocated rate.
func ExampleNew() {
	nb := network.NewBuilder("edge")
	sensor := nb.AddNCP("sensor", nil, 0)
	worker := nb.AddNCP("worker", resource.Vector{resource.CPU: 1000}, 0)
	gateway := nb.AddNCP("gateway", nil, 0)
	nb.AddLink("s-w", sensor, worker, 100, 0)
	nb.AddLink("w-g", worker, gateway, 100, 0)
	net, err := nb.Build()
	if err != nil {
		log.Fatal(err)
	}

	tb := taskgraph.NewBuilder("telemetry")
	src := tb.AddCT("source", nil)
	filter := tb.AddCT("filter", resource.Vector{resource.CPU: 100})
	sink := tb.AddCT("deliver", nil)
	tb.AddTT("raw", src, filter, 10)
	tb.AddTT("out", filter, sink, 1)
	graph, err := tb.Build()
	if err != nil {
		log.Fatal(err)
	}

	sched := core.New(net)
	placed, err := sched.Submit(core.App{
		Name:  "telemetry",
		Graph: graph,
		Pins:  placement.Pins{src: sensor, sink: gateway},
		QoS:   core.QoS{Class: core.BestEffort, Priority: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rate %.0f data units/s on %d path(s)\n", placed.TotalRate(), len(placed.Paths))
	// Output: rate 10 data units/s on 1 path(s)
}

// ExampleScheduler_ApplyFluctuation degrades an element and shows the
// re-solved best-effort rate.
func ExampleScheduler_ApplyFluctuation() {
	nb := network.NewBuilder("edge")
	src := nb.AddNCP("src", nil, 0)
	w := nb.AddNCP("w", resource.Vector{resource.CPU: 100}, 0)
	snk := nb.AddNCP("snk", nil, 0)
	nb.AddLink("a", src, w, 1e6, 0)
	nb.AddLink("b", w, snk, 1e6, 0)
	net, err := nb.Build()
	if err != nil {
		log.Fatal(err)
	}
	tb := taskgraph.NewBuilder("app")
	s := tb.AddCT("s", nil)
	work := tb.AddCT("w", resource.Vector{resource.CPU: 10})
	k := tb.AddCT("k", nil)
	tb.AddTT("in", s, work, 1)
	tb.AddTT("out", work, k, 1)
	graph, err := tb.Build()
	if err != nil {
		log.Fatal(err)
	}
	sched := core.New(net)
	if _, err := sched.Submit(core.App{
		Name: "app", Graph: graph, Pins: placement.Pins{s: src, k: snk},
		QoS: core.QoS{Class: core.BestEffort, Priority: 1},
	}); err != nil {
		log.Fatal(err)
	}
	rep, err := sched.ApplyFluctuation(core.ElementScale{placement.NCPElement(w): 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rate after degradation: %.0f/s\n", rep.BERates["app"])
	// Output: rate after degradation: 5/s
}
