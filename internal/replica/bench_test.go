package replica

import "testing"

// BenchmarkPropose is the replica layer's twin of the durable_repl3
// write path: three in-process nodes over real SyncAlways journals, one
// proposal per op through the ready leader, each acknowledged by quorum.
// exports/op counts full state-machine exports on all three nodes —
// snapshot cuts plus any export a cut then refused.
func BenchmarkPropose(b *testing.B) {
	c := newCluster(b, 0) // the default snapshot cadence
	lead := c.waitLeader()
	exports := func() (sum int64) {
		for _, id := range c.ids {
			sum += c.sm(id).exports.Load()
		}
		return sum
	}
	sm, before := c.sm(lead.ID()), exports()
	data := []byte(`"op"`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sm.applyAndPropose(data, func() error { return lead.Propose(data) }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(exports()-before)/float64(b.N), "exports/op")
}
