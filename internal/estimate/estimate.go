// Package estimate provides the graph statistics the paper's Section VI
// cost model needs (the planner's cost walk in internal/plan turns them
// into estimates of |R(P')|).
//
// On skewed graphs the expected degree of a vertex reached by following
// an edge is Σd²/2M (degree-biased), not 2M/N, and an extra backward
// edge closes with the measured clustering coefficient. Absolute accuracy
// is secondary: the optimizer only compares orders on the same graph, so
// consistent relative error is what matters.
package estimate

import (
	"sort"

	"light/internal/graph"
)

// GraphStats summarizes a data graph for estimation. Build one with
// Collect, once per CSR: it counts the graph's triangles.
type GraphStats struct {
	N          float64 // |V(G)|
	M          float64 // |E(G)|
	DegreeSum2 float64 // Σ d(v)²
	// Clustering is the global clustering coefficient 6T / Σ d(d−1): the
	// probability that two neighbours of a vertex are adjacent, which the
	// estimator uses as the chance that one more backward edge closes.
	Clustering float64
	// LowDegree and HighDegree are the mean degrees of the lower-ID and
	// of the higher-ID endpoint of an edge. IDs ascend with degree, so a
	// pattern vertex held below another by symmetry breaking expands
	// like LowDegree, and the one held above it like HighDegree.
	LowDegree, HighDegree float64
}

// Collect measures g's estimation statistics. The degree moment is
// cached by the graph; the clustering coefficient and the endpoint
// degrees take one pass of forward-adjacency triangle counting: each
// triangle u < v < w is found once, at u, as w ∈ N⁺(u) ∩ N⁺(v), where
// N⁺(x) is the part of x's sorted list above x. On a degree-ordered CSR
// the forward lists are short, so the pass costs far less than merging
// the full lists of every edge.
func Collect(g *graph.Graph) GraphStats {
	s := GraphStats{
		N:          float64(g.NumVertices()),
		M:          float64(g.NumEdges()),
		DegreeSum2: g.DegreeSum2(),
	}
	n := g.NumVertices()
	if s.M == 0 {
		return s
	}
	// fwd[v] is where N⁺(v) starts in v's neighbour list.
	fwd := make([]int32, n)
	for v := range fwd {
		ns := g.Neighbors(graph.VertexID(v))
		fwd[v] = int32(sort.Search(len(ns), func(i int) bool { return int(ns[i]) > v }))
	}
	// mark[w] == u+1 ⇔ w ∈ N⁺(u) for the u being scanned.
	mark := make([]uint32, n)
	var triangles, wedges, low, high float64
	for u := 0; u < n; u++ {
		ns := g.Neighbors(graph.VertexID(u))
		d := float64(len(ns))
		wedges += d * (d - 1)
		stamp := uint32(u) + 1
		out := ns[fwd[u]:]
		for _, v := range out {
			mark[v] = stamp
		}
		for _, v := range out {
			vs := g.Neighbors(v)
			low += d
			high += float64(len(vs))
			for _, w := range vs[fwd[v]:] {
				if mark[w] == stamp {
					triangles++
				}
			}
		}
	}
	if wedges > 0 {
		s.Clustering = 6 * triangles / wedges
	}
	s.LowDegree = low / s.M
	s.HighDegree = high / s.M
	return s
}

// ExpandFactor returns the expected number of extensions when following
// one new edge out of an existing partial result: the degree-biased mean
// degree Σd²/2M (an edge endpoint is reached with probability
// proportional to its degree). It is 0 when the graph has no edges.
func (s GraphStats) ExpandFactor() float64 {
	if s.M <= 0 {
		return 0
	}
	return s.DegreeSum2 / (2 * s.M)
}
