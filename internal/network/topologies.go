package network

import (
	"fmt"

	"sparcle/internal/resource"
)

// ElementParams describes the homogeneous-element parameters used by the
// simple topology builders. Heterogeneous networks are produced by the
// workload package, which perturbs these base values per element.
type ElementParams struct {
	// NCPCapacity is the capacity vector of every NCP.
	NCPCapacity resource.Vector
	// LinkBandwidth is the bandwidth of every link, bits per second.
	LinkBandwidth float64
	// NCPFailProb and LinkFailProb are element failure probabilities.
	NCPFailProb  float64
	LinkFailProb float64
}

// Star builds a star network: NCP 0 is the hub, NCPs 1..n-1 are leaves,
// each connected to the hub by one link. Star topologies model typical IoT
// gateway deployments (§V.B.1).
func Star(n int, p ElementParams) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: star needs at least 2 NCPs, got %d", n)
	}
	b := NewBuilder(fmt.Sprintf("star-%d", n))
	hub := b.AddNCP("hub", p.NCPCapacity, p.NCPFailProb)
	for i := 1; i < n; i++ {
		leaf := b.AddNCP(fmt.Sprintf("ncp%d", i), p.NCPCapacity, p.NCPFailProb)
		b.AddLink(fmt.Sprintf("l%d", i), hub, leaf, p.LinkBandwidth, p.LinkFailProb)
	}
	return b.Build()
}

// FullMesh builds a fully connected network of n NCPs with n(n-1)/2 links.
func FullMesh(n int, p ElementParams) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: full mesh needs at least 2 NCPs, got %d", n)
	}
	b := NewBuilder(fmt.Sprintf("mesh-%d", n))
	ids := make([]NCPID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNCP(fmt.Sprintf("ncp%d", i), p.NCPCapacity, p.NCPFailProb)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddLink(fmt.Sprintf("l%d-%d", i, j), ids[i], ids[j], p.LinkBandwidth, p.LinkFailProb)
		}
	}
	return b.Build()
}

// CloudFieldParams parameterizes the experimental testbed of Fig. 4 and
// Table I: four field NCPs attached pairwise to two field aggregation NCPs,
// the aggregators interconnected, and one aggregator uplinked to a cloud
// NCP. All field links share the swept "field bandwidth"; the cloud uplink
// has its own (much larger) bandwidth.
type CloudFieldParams struct {
	// FieldCapacity is each field NCP's capacity (Table I: 3000 MHz CPU).
	FieldCapacity resource.Vector
	// CloudCapacity is the cloud NCP's capacity (Table I: 4 x 3.8 GHz).
	CloudCapacity resource.Vector
	// FieldBandwidth is every field link's bandwidth (the Fig. 6 sweep).
	FieldBandwidth float64
	// CloudBandwidth is the cloud uplink bandwidth (Table I: 100 Mbps).
	CloudBandwidth float64
	// NCPFailProb and LinkFailProb are element failure probabilities
	// (zero in the Fig. 6 experiment).
	NCPFailProb  float64
	LinkFailProb float64
}

// CloudFieldNames exposes the NCP names used by CloudField for host pinning
// in experiments: field leaves ncp1..ncp4, aggregators ncp5 and ncp6, and
// the cloud node.
var CloudFieldNames = struct {
	Field [4]string
	Agg   [2]string
	Cloud string
}{
	Field: [4]string{"ncp1", "ncp2", "ncp3", "ncp4"},
	Agg:   [2]string{"ncp5", "ncp6"},
	Cloud: "cloud",
}

// CloudField builds the Fig. 4 testbed network.
func CloudField(p CloudFieldParams) (*Network, error) {
	b := NewBuilder("cloud-field")
	var field [4]NCPID
	for i := range field {
		field[i] = b.AddNCP(CloudFieldNames.Field[i], p.FieldCapacity, p.NCPFailProb)
	}
	agg5 := b.AddNCP(CloudFieldNames.Agg[0], p.FieldCapacity, p.NCPFailProb)
	agg6 := b.AddNCP(CloudFieldNames.Agg[1], p.FieldCapacity, p.NCPFailProb)
	cloud := b.AddNCP(CloudFieldNames.Cloud, p.CloudCapacity, p.NCPFailProb)

	// Field links (all at the swept field bandwidth): leaves to their
	// aggregator, adjacent leaves, and the aggregator interconnect.
	b.AddLink("f1-5", field[0], agg5, p.FieldBandwidth, p.LinkFailProb)
	b.AddLink("f2-5", field[1], agg5, p.FieldBandwidth, p.LinkFailProb)
	b.AddLink("f3-6", field[2], agg6, p.FieldBandwidth, p.LinkFailProb)
	b.AddLink("f4-6", field[3], agg6, p.FieldBandwidth, p.LinkFailProb)
	b.AddLink("f1-2", field[0], field[1], p.FieldBandwidth, p.LinkFailProb)
	b.AddLink("f3-4", field[2], field[3], p.FieldBandwidth, p.LinkFailProb)
	b.AddLink("f5-6", agg5, agg6, p.FieldBandwidth, p.LinkFailProb)
	// Cloud uplink from aggregator ncp6.
	b.AddLink("cloud-up", agg6, cloud, p.CloudBandwidth, p.LinkFailProb)
	return b.Build()
}
