package assign_test

import (
	"fmt"
	"log"

	"sparcle/internal/assign"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// ExampleSparcle_Assign runs a single task assignment directly, without
// the multi-application scheduler, and prints the placement's maximum
// stable processing rate at full element capacities.
func ExampleSparcle_Assign() {
	nb := network.NewBuilder("pair")
	a := nb.AddNCP("a", nil, 0)
	b := nb.AddNCP("b", resource.Vector{resource.CPU: 50}, 0)
	nb.AddLink("ab", a, b, 100, 0)
	net, err := nb.Build()
	if err != nil {
		log.Fatal(err)
	}
	tb := taskgraph.NewBuilder("one-step")
	src := tb.AddCT("src", nil)
	work := tb.AddCT("work", resource.Vector{resource.CPU: 10})
	tb.AddTT("move", src, work, 5)
	graph, err := tb.Build()
	if err != nil {
		log.Fatal(err)
	}
	caps := net.BaseCapacities()
	p, err := assign.Sparcle{}.Assign(graph, placement.Pins{src: a, work: b}, net, caps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bottleneck rate %.0f/s\n", p.Rate(caps))
	// Output: bottleneck rate 5/s
}
