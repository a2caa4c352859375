package light

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
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
// Walkthrough (symmetry breaking forces v0 < v1 < v2; every constraint
// is pushed into its COMP, which cuts each operand to the window above
// the images it is bounded by before intersecting):
//
//	roots 0,1,2                                 → 3 nodes, 3 COMPs of u1 (alias, no intersection)
//	root 0: C(u1) = N(0)={1,2} cut to >0 = {1,2} → 2 nodes
//	  v1=1: COMP u2 = N(1)∩C(u1), both cut to >1 → {2}∩{2}: 1 intersection, 2 elements; MAT {2} → 1 node, 1 match
//	  v1=2: COMP u2 = N(2)∩C(u1), both cut to >2 → ∅∩∅: 1 intersection, 0 elements; empty, no MAT
//	root 1: C(u1) = N(1)={0,2} cut to >1 = {2}   → 1 node
//	  v1=2: COMP u2 = N(2)∩C(u1), both cut to >2 → ∅∩∅: 1 intersection, 0 elements; empty, no MAT
//	root 2: C(u1) = N(2)={0,1} cut to >2 = ∅     → nothing
//
// Totals: 1 match, 7 nodes, 6 COMPs, 3 intersections (all merge,
// 0 galloping), 2 elements. Cutting at the MATs instead, as the paper
// does, scans the full lists: 4 elements per intersection, 12 in all.
func TestRunReportHandCountedTriangle(t *testing.T) {
	g := triangleGraph(t)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	res, err := countInOrder(g, p, []int{0, 1, 2}, Options{Intersection: Merge})
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
		{"elements", r.Elements, 2},
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

// TestRunReportMatchesResult: a run's Report is built from the counters
// its Result carries, so the two agree on every counter both hold — at
// any worker count, under a Governor, after a resume, and for every
// query of a batch, finished or stopped.
func TestRunReportMatchesResult(t *testing.T) {
	g, p := benchGraph(t)
	check := func(name string, res Result) {
		t.Helper()
		r := res.Report
		if r == nil {
			t.Errorf("%s: no report", name)
			return
		}
		if r.Matches != res.Matches || r.Nodes != res.Nodes || r.Intersections != res.Intersections ||
			r.GallopingPercent != res.GallopingPercent || r.CandidateMemoryBytes != res.CandidateMemoryBytes {
			t.Errorf("%s: report matches %d nodes %d intersections %d galloping %v%% memory %d; result %d, %d, %d, %v%%, %d",
				name, r.Matches, r.Nodes, r.Intersections, r.GallopingPercent, r.CandidateMemoryBytes,
				res.Matches, res.Nodes, res.Intersections, res.GallopingPercent, res.CandidateMemoryBytes)
		}
	}

	for _, workers := range []int{1, 2} {
		res, err := Count(g, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Count W=%d", workers), res)
	}
	res, err := Count(g, p, Options{Workers: 2, Governor: NewGovernor(GovernorConfig{Slots: 2})})
	if err != nil {
		t.Fatal(err)
	}
	check("governed Count", res)

	// A run stopped at its 100th match checkpoints the roots it
	// finished; the resumed run counts them in both Result and Report.
	path := filepath.Join(t.TempDir(), "state.ckpt")
	var seen atomic.Uint64
	if _, err := Enumerate(g, p, Options{Workers: 2, CheckpointPath: path, CheckpointInterval: time.Hour}, func([]VertexID) bool {
		return seen.Add(1) < 100
	}); err != nil {
		t.Fatal(err)
	}
	res, err = Count(g, p, Options{Workers: 2, ResumeFrom: path})
	if err != nil {
		t.Fatal(err)
	}
	check("resumed Count", res)

	tri := mustPattern(t, "triangle")
	queries := []BatchQuery{{Pattern: p}, {Pattern: p, MinDegree: 3}, {Pattern: tri}}
	bres, err := CountBatch(g, queries, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range bres.Queries {
		check(fmt.Sprintf("CountBatch query %d", i), q)
	}

	// Stopped by its time limit, a batch's counters are partial, and
	// each query's report carries the same partial counters as its
	// result.
	// K150 holds C(150, 5) ≈ 5.9·10⁸ five-cliques, seconds of work
	// where the limit allows 50 ms.
	k150 := completeGraph(150)
	clique := mustPattern(t, "clique5")
	// Roots are dealt heaviest (highest id) first: the top half is
	// where the stopped run did its work.
	top := make([]VertexID, 75)
	for i := range top {
		top[i] = VertexID(75 + i)
	}
	bres, err = CountBatch(k150, []BatchQuery{{Pattern: clique}, {Pattern: clique, Roots: top}, {Pattern: mustPattern(t, "clique4")}},
		Options{Workers: 2, TimeLimit: 50 * time.Millisecond})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("stopped CountBatch: err = %v, want ErrTimeLimit", err)
	}
	var nodes uint64
	for i, q := range bres.Queries {
		check(fmt.Sprintf("stopped CountBatch query %d", i), q)
		nodes += q.Nodes
	}
	if nodes == 0 {
		t.Error("stopped CountBatch expanded no node before its limit, so its rows compare nothing")
	}
}
