// Package diffcheck is the differential correctness harness: it
// generates random (pattern, data graph) cases, runs each one through
// every implementation in the repo that can count or enumerate matches
// — an independent brute-force reference, the BFS-join baselines, and
// the LIGHT engine serial and on the work-stealing pool under every
// kernel, count-only or visitor, and DegreeFilter combination, plus a
// kill-and-resume checkpoint round-trip — and cross-checks the results.
// On a discrepancy, a greedy shrinker reduces the case to a minimal
// repro and renders it as a ready-to-paste Go test.
//
// The package is consumed three ways: deterministic seeded short tests
// (diffcheck_test.go), a native fuzz target (FuzzDifferential), and the
// cmd/lightdiff CLI that scripts/verify.sh and the nightly soak run.
package diffcheck

import (
	"fmt"
	"math/rand"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
)

// Case is a self-contained differential test case: explicit edge lists
// rather than generator parameters, so the shrinker can delete vertices
// and edges one at a time and rebuild.
type Case struct {
	Family string // generator family the case came from ("shrunk" after reduction)
	Seed   int64  // generation seed (also derandomizes order choice in RunCase)

	GraphN     int
	GraphEdges [][2]uint32

	PatternN     int
	PatternEdges [][2]int
}

// Families lists the generator families GenerateCase accepts. The first
// two are the standard random models; the rest are adversarial: extreme
// hub skew, maximal density, near-2-colorability, and mass degree ties
// under the ordered-graph relabeling.
var Families = []string{"er", "ba", "star", "clique", "bipartite", "ties"}

// GenerateCase builds a random case from the named family. The data
// graph and the 3–7 vertex connected pattern are both deterministic
// functions of (family, seed). Sizes are tuned so the brute-force
// reference usually stays under the embedding cap.
func GenerateCase(family string, seed int64) (Case, error) {
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	switch family {
	case "er":
		n := 12 + rng.Intn(16)
		g = gen.ErdosRenyi(n, 2*n+rng.Intn(n), seed^0x5e5e)
	case "ba":
		g = gen.BarabasiAlbert(15+rng.Intn(15), 2+rng.Intn(2), seed^0xba)
	case "star":
		leaves := 8 + rng.Intn(14)
		g = gen.StarChords(leaves, rng.Intn(2*leaves), seed^0x57a7)
	case "clique":
		g = gen.Complete(5 + rng.Intn(5))
	case "bipartite":
		g = gen.NearBipartite(3+rng.Intn(6), 3+rng.Intn(6), rng.Intn(7), seed^0xb1b1)
	case "ties":
		g = gen.DegreeTies(2+rng.Intn(4), 4+rng.Intn(4), seed^0x7135)
	default:
		return Case{}, fmt.Errorf("diffcheck: unknown family %q (known: %v)", family, Families)
	}
	p := pattern.RandomConnected(rng, 3+rng.Intn(5), rng.Intn(4))
	c := Case{
		Family:     family,
		Seed:       seed,
		GraphN:     g.NumVertices(),
		GraphEdges: graphEdges(g),
		PatternN:   p.NumVertices(),
	}
	for u := 0; u < p.NumVertices(); u++ {
		for v := u + 1; v < p.NumVertices(); v++ {
			if p.HasEdge(u, v) {
				c.PatternEdges = append(c.PatternEdges, [2]int{u, v})
			}
		}
	}
	return c, nil
}

// graphEdges snapshots g's edge list (u < v once per edge).
func graphEdges(g *graph.Graph) [][2]uint32 {
	edges := make([][2]uint32, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if uint32(v) > uint32(u) {
				edges = append(edges, [2]uint32{uint32(u), uint32(v)})
			}
		}
	}
	return edges
}

// Validate rejects cases whose edge lists are not well-formed (out of
// range endpoints or self-loops). Duplicate edges are fine — both the
// graph builder and pattern.New deduplicate.
func (c Case) Validate() error {
	if c.GraphN < 1 {
		return fmt.Errorf("diffcheck: graph has %d vertices", c.GraphN)
	}
	if c.PatternN < 2 || c.PatternN > pattern.MaxVertices {
		return fmt.Errorf("diffcheck: pattern has %d vertices, want 2..%d", c.PatternN, pattern.MaxVertices)
	}
	for _, e := range c.GraphEdges {
		if int(e[0]) >= c.GraphN || int(e[1]) >= c.GraphN || e[0] == e[1] {
			return fmt.Errorf("diffcheck: bad graph edge (%d,%d) on %d vertices", e[0], e[1], c.GraphN)
		}
	}
	for _, e := range c.PatternEdges {
		if e[0] < 0 || e[1] < 0 || e[0] >= c.PatternN || e[1] >= c.PatternN || e[0] == e[1] {
			return fmt.Errorf("diffcheck: bad pattern edge (%d,%d) on %d vertices", e[0], e[1], c.PatternN)
		}
	}
	if !patternConnected(c.PatternN, c.PatternEdges) {
		return fmt.Errorf("diffcheck: pattern is disconnected")
	}
	return nil
}

// Build materializes the case: the ordered data graph and the compiled
// pattern. Counting is isomorphism-invariant, so the degree-relabeling
// BuildOrdered applies does not change any oracle's answer; mapping-set
// comparisons use the ordered graph's labels on both sides (see
// RunCase).
func (c Case) Build() (*graph.Graph, *pattern.Pattern, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	b := graph.NewBuilder(c.GraphN)
	for _, e := range c.GraphEdges {
		b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	g := b.BuildOrdered()
	pe := make([][2]pattern.Vertex, len(c.PatternEdges))
	for i, e := range c.PatternEdges {
		pe[i] = [2]pattern.Vertex{e[0], e[1]}
	}
	p, err := pattern.New("case", c.PatternN, pe)
	if err != nil {
		return nil, nil, err
	}
	return g, p, nil
}

// patternConnected reports whether the n-vertex pattern with the given
// edges is one component (BFS; independent of the pattern package).
func patternConnected(n int, edges [][2]int) bool {
	if n < 1 {
		return false
	}
	adj := make([][]int, n)
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return false
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := []int{0}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}
