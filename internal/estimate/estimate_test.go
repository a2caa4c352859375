package estimate

import (
	"math"
	"testing"

	"light/internal/gen"
	"light/internal/graph"
)

func TestCollectAndMoments(t *testing.T) {
	g := gen.Complete(10)
	s := Collect(g)
	if s.N != 10 || s.M != 45 {
		t.Fatalf("stats = %+v", s)
	}
	// Complete graph: every degree 9, Σd² = 810, expand factor = 9, and
	// both ends of every edge have degree 9.
	if got := s.ExpandFactor(); got != 9 {
		t.Fatalf("ExpandFactor = %v, want 9", got)
	}
	if s.LowDegree != 9 || s.HighDegree != 9 {
		t.Fatalf("endpoint degrees = %v, %v, want 9, 9", s.LowDegree, s.HighDegree)
	}
}

func TestZeroGraph(t *testing.T) {
	var s GraphStats
	if s.ExpandFactor() != 0 || s.Clustering != 0 {
		t.Fatal("zero stats should yield zero factors")
	}
	if got := Collect(graph.NewBuilder(3).Build()); got.N != 3 || got.ExpandFactor() != 0 || got.Clustering != 0 {
		t.Fatalf("edgeless graph: %+v", got)
	}
}

// TestCollectOnHandCountableGraphs checks the measured statistics where
// they can be counted by hand: every wedge of K4 closes, no wedge of a
// star does, and on the degree-ordered path a–b–c–d the lower ends of
// the edges {a,b}, {c,d}, {b,c} have degrees 1, 1, 2 and the higher ends
// 2, 2, 2.
func TestCollectOnHandCountableGraphs(t *testing.T) {
	if got := Collect(gen.Complete(4)).Clustering; got != 1 {
		t.Errorf("K4 clustering = %v, want 1", got)
	}
	star := Collect(gen.Star(6))
	if star.Clustering != 0 {
		t.Errorf("star clustering = %v, want 0", star.Clustering)
	}
	if star.LowDegree != 1 || star.HighDegree != 6 {
		t.Errorf("star endpoint degrees = %v, %v, want 1, 6", star.LowDegree, star.HighDegree)
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	path := Collect(b.BuildOrdered())
	if math.Abs(path.LowDegree-4.0/3) > 1e-12 || path.HighDegree != 2 {
		t.Errorf("path endpoint degrees = %v, %v, want 4/3, 2", path.LowDegree, path.HighDegree)
	}
	if path.Clustering != 0 {
		t.Errorf("path clustering = %v, want 0", path.Clustering)
	}
	// Two triangles sharing an edge: T = 2, Σd(d−1) = 2·6 + 2·2 = 16.
	d := graph.NewBuilder(4)
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}} {
		d.AddEdge(e[0], e[1])
	}
	if got := Collect(d.BuildOrdered()).Clustering; got != 6*2.0/16 {
		t.Errorf("diamond clustering = %v, want 0.75", got)
	}
}
