package intersect

import (
	"fmt"
	"testing"

	"light/internal/gen"
	"light/internal/graph"
)

// BenchmarkAblationDelta sweeps the Hybrid threshold δ (the paper fixes
// δ = 50 from a prior study) over the intersections P2's pinned order
// (0 2 1 3) runs on the yt-s stand-in: C(u1) = N(φ(u0)) ∩ N(φ(u2)) for
// the two ends of every edge. The engine always runs DefaultDelta; this
// is the harness for finding it again.
func BenchmarkAblationDelta(b *testing.B) {
	g := gen.BarabasiAlbert(1200, 3, 101)
	var pairs [][2][]graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		nu := g.Neighbors(graph.VertexID(u))
		for _, v := range nu {
			if graph.VertexID(u) < v {
				pairs = append(pairs, [2][]graph.VertexID{nu, g.Neighbors(v)})
			}
		}
	}
	dst := make([]graph.VertexID, g.MaxDegree()+1)
	for _, delta := range []int{2, 8, 50, 500} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			var st Stats
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					HybridBlock(dst, p[0], p[1], delta, &st)
				}
			}
			b.ReportMetric(st.GallopingPercent(), "galloping%")
		})
	}
}
