package light

import (
	"testing"
)

// triangleGraph is the smallest interesting data graph: K3, every vertex
// degree 2.
func triangleGraph(t *testing.T) *Graph {
	t.Helper()
	return NewGraph(3, [][2]VertexID{{0, 1}, {0, 2}, {1, 2}})
}

// TestRunReportHandCountedTriangle pins the counter semantics on a graph
// small enough to trace by hand: K3 matched against the triangle pattern
// with the enumeration order fixed to [0,1,2] and the Merge kernel.
//
// Walkthrough (symmetry breaking forces v0 < v1 < v2):
//
//	roots 0,1,2                                 → 3 nodes, 3 COMPs of u1 (alias, no intersection)
//	root 0: u1 over N(0)={1,2}                  → 2 nodes
//	  v1=1: COMP u2 = N(0)∩N(1)                 → 1 intersection, 4 elements; MAT {2} → 1 node, 1 match
//	  v1=2: COMP u2 = N(0)∩N(2)                 → 1 intersection, 4 elements; bound v2>2 → nothing
//	root 1: u1 over {v>1}∩N(1)={2}              → 1 node
//	  v1=2: COMP u2 = N(1)∩N(2)                 → 1 intersection, 4 elements; bound v2>2 → nothing
//	root 2: u1 over {v>2}∩N(2)=∅                → nothing
//
// Totals: 1 match, 7 nodes, 6 COMPs, 3 intersections (all merge,
// 0 galloping), 12 elements.
func TestRunReportHandCountedTriangle(t *testing.T) {
	g := triangleGraph(t)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(g, p, Options{Intersection: Merge, Order: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r == nil {
		t.Fatal("Count returned no report")
	}
	if r.Schema != RunReportSchema {
		t.Fatalf("schema %q, want %q", r.Schema, RunReportSchema)
	}
	want := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"matches", r.Matches, 1},
		{"nodes", r.Nodes, 7},
		{"comps", r.Comps, 6},
		{"intersections", r.Intersections, 3},
		{"galloping", r.Galloping, 0},
		{"merges", r.Merges, 3},
		{"elements", r.Elements, 12},
	}
	for _, w := range want {
		if w.got != w.want {
			t.Errorf("%s = %d, want %d", w.name, w.got, w.want)
		}
	}
	if res.Matches != r.Matches || res.Nodes != r.Nodes || res.Intersections != r.Intersections {
		t.Errorf("Result and Report disagree: %+v vs %+v", res, r)
	}
}

// TestRunReportDeterministicAcrossWorkers is the invariant the CI bench
// gate rests on: the engine counters depend only on (graph, plan,
// kernel), never on worker count or chunk sizes.
func TestRunReportDeterministicAcrossWorkers(t *testing.T) {
	g, p := benchGraph(t)
	serial, err := Count(g, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := Count(g, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s, w := serial.Report, par.Report
		if s.Matches != w.Matches || s.Nodes != w.Nodes || s.Comps != w.Comps ||
			s.Intersections != w.Intersections || s.Galloping != w.Galloping ||
			s.Elements != w.Elements {
			t.Errorf("workers=%d: counters drifted from serial:\nserial:   %+v\nparallel: %+v", workers, s, w)
		}
	}
}

// benchGraph builds a deterministic graph big enough to spread over
// many root chunks.
func benchGraph(t *testing.T) (*Graph, *Pattern) {
	t.Helper()
	// Deterministic pseudo-random-ish graph without rand: connect i to
	// i/2 and i to i-1 (a dense preferential-attachment-like shape).
	n := 2000
	edges := make([][2]VertexID, 0, 3*n)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]VertexID{VertexID(i), VertexID(i / 2)})
		edges = append(edges, [2]VertexID{VertexID(i), VertexID(i - 1)})
		edges = append(edges, [2]VertexID{VertexID(i), VertexID((i * 7) % i)})
	}
	p, err := PatternByName("P2")
	if err != nil {
		t.Fatal(err)
	}
	return NewGraph(n, edges), p
}
