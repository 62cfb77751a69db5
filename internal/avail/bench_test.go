package avail

import (
	"fmt"
	"testing"
)

// BenchmarkAvail is the availability layer's microbenchmark: AtLeastOne
// (every BE admission runs it once per added path) and MinRate (every GR
// admission) at P = 1-4 paths shaped like a mesh route. Each path is 12
// elements, its two endpoint NCPs, which never fail and are on every
// path, and 10 links at failure probability 0.01, the last two of which
// the next path also crosses.
func BenchmarkAvail(b *testing.B) {
	for p := 1; p <= 4; p++ {
		fp := FailProbs{}
		paths := make([]Path, p)
		for i := range paths {
			paths[i] = Path{Elements: []int{0, 1}, Rate: 1}
			for l := 0; l < 10; l++ {
				e := 2 + 8*i + l
				paths[i].Elements = append(paths[i].Elements, e)
				fp[e] = 0.01
			}
		}
		b.Run(fmt.Sprintf("AtLeastOne/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AtLeastOne(paths, fp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("MinRate/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MinRate(paths, fp, float64(p)/2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
