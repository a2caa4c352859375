package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// square returns the 4-cycle 0-1-2-3-0.
func square() *Graph {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("zero Graph not empty: %v", &g)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("zero Graph invalid: %v", err)
	}
	built := NewBuilder(0).Build()
	if built.NumVertices() != 0 || built.NumEdges() != 0 {
		t.Fatalf("empty build not empty: %v", built)
	}
}

func TestBuilderBasics(t *testing.T) {
	g := square()
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	want := []VertexID{1, 3}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // reversed duplicate
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self-loop
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup failed)", g.NumEdges())
	}
	if g.Degree(2) != 1 {
		t.Fatalf("Degree(2) = %d, want 1 (self-loop kept)", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestHasEdge(t *testing.T) {
	g := square()
	cases := []struct {
		u, v VertexID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false}, {2, 0, false},
		{2, 3, true}, {1, 3, false}, {0, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]VertexID{
		{1, 2}, {0, 2}, {0, 1, 3}, {2},
	})
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(2, 3) || g.HasEdge(1, 3) {
		t.Fatal("adjacency mismatch")
	}
}

func TestReorderDegreeOrder(t *testing.T) {
	// Star plus pendant: vertex 0 is the hub with degree 4; after
	// reordering it must get the largest ID.
	b := NewBuilder(5)
	for v := VertexID(1); v <= 4; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	g, mapping := ReorderWithMapping(b.Build())
	if !g.IsOrdered() {
		t.Fatal("reordered graph not degree-ordered")
	}
	if mapping[0] != 4 {
		t.Fatalf("hub mapped to %d, want 4 (largest ID)", mapping[0])
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after reorder: %v", err)
	}
	// Edge/vertex counts preserved.
	if g.NumEdges() != 5 || g.NumVertices() != 5 {
		t.Fatalf("reorder changed size: %v", g)
	}
}

func TestReorderTiesBreakByOldID(t *testing.T) {
	g := square() // all degrees equal: reorder must be the identity
	ng, mapping := ReorderWithMapping(g)
	for old, new := range mapping {
		if VertexID(old) != new {
			t.Fatalf("tie-break broken: %d -> %d", old, new)
		}
	}
	if !reflect.DeepEqual(ng.Neighbors(0), g.Neighbors(0)) {
		t.Fatal("identity reorder changed adjacency")
	}
}

func TestReorderPreservesIsomorphism(t *testing.T) {
	// Degree multiset and per-edge degree pairs must be preserved.
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(50)
	for i := 0; i < 200; i++ {
		b.AddEdge(VertexID(rng.Intn(50)), VertexID(rng.Intn(50)))
	}
	g := b.Build()
	ng, mapping := ReorderWithMapping(g)
	if ng.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), ng.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) != ng.Degree(mapping[v]) {
			t.Fatalf("degree of %d changed under mapping", v)
		}
		for _, w := range g.Neighbors(VertexID(v)) {
			if !ng.HasEdge(mapping[v], mapping[w]) {
				t.Fatalf("edge (%d,%d) lost under mapping", v, w)
			}
		}
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 2 extra-fields-ignored
2 0

3 3
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %v, want N=4 M=3", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 -1\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q): expected error", in)
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(100)
	for i := 0; i < 400; i++ {
		b.AddEdge(VertexID(rng.Intn(100)), VertexID(rng.Intn(100)))
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := g.WriteCSR(&buf); err != nil {
		t.Fatalf("WriteCSR: %v", err)
	}
	g2, err := ReadCSR(&buf)
	if err != nil {
		t.Fatalf("ReadCSR: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %v vs %v", g, g2)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !reflect.DeepEqual(g.Neighbors(VertexID(v)), g2.Neighbors(VertexID(v))) {
			t.Fatalf("round trip changed neighbors of %d", v)
		}
	}
}

func TestReadCSRRejectsGarbage(t *testing.T) {
	if _, err := ReadCSR(bytes.NewReader([]byte("not a csr file at all........"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, err := ReadCSR(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestMemoryBytesAndStats(t *testing.T) {
	g := square()
	want := int64(5*8 + 8*4)
	if got := g.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
	if got := g.AverageDegree(); got != 2 {
		t.Errorf("AverageDegree = %v, want 2", got)
	}
	if got := g.DegreeSum2(); got != 16 {
		t.Errorf("DegreeSum2 = %v, want 16", got)
	}
}

// TestQuickBuilderInvariants property-checks that any multiset of edges
// produces a valid, symmetric, deduplicated CSR graph.
func TestQuickBuilderInvariants(t *testing.T) {
	f := func(pairs []uint16) bool {
		b := NewBuilder(0)
		seen := map[[2]VertexID]bool{}
		for i := 0; i+1 < len(pairs); i += 2 {
			u, v := VertexID(pairs[i]%512), VertexID(pairs[i+1]%512)
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				seen[[2]VertexID{u, v}] = true
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		return g.NumEdges() == int64(len(seen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReorderIsPermutation property-checks that reordering is a
// bijection preserving the degree multiset.
func TestQuickReorderIsPermutation(t *testing.T) {
	f := func(pairs []uint16) bool {
		b := NewBuilder(1)
		for i := 0; i+1 < len(pairs); i += 2 {
			b.AddEdge(VertexID(pairs[i]%128), VertexID(pairs[i+1]%128))
		}
		g := b.Build()
		ng, mapping := ReorderWithMapping(g)
		if !ng.IsOrdered() || ng.Validate() != nil {
			return false
		}
		seen := make([]bool, len(mapping))
		for _, nv := range mapping {
			if seen[nv] {
				return false
			}
			seen[nv] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
