package diffcheck

import (
	"context"
	"fmt"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/lanes"
	"light/internal/parallel"
	"light/internal/plan"
)

// checkLanes runs the case lane-batched and demands every lane's
// attributed counters equal its sequential reference, two ways:
//
//   - an identical-pattern root batch: six lanes over the same plan
//     whose root sets are the full graph, two overlapping windows, and
//     a three-way partition — each lane checked against a sequential
//     RunRoots over exactly that subset, plus the partition's counts
//     summing to the reference;
//   - a mixed batch: the case plan unrestricted, degree-thresholded,
//     and filtered, plus (when the pattern admits a second connected
//     order) an incompatible plan that must land in its own lane group
//     — each lane checked against a sequential run under the
//     equivalent engine filter.
//
// Both batches run through the parallel scheduler at cfg.Workers, so
// their root chunks spread across workers; counter equality is
// partition-independent for the same reason it is in counterDiff. Lanes
// walk every level to the leaves, so every sequential reference runs
// under a filter, acceptAll where the lane has none: an unfiltered
// count-only run counts its trailing levels instead.
func checkLanes(c Case, g *graph.Graph, pl, alt *plan.Plan, want uint64, cfg Config) *Discrepancy {
	fail := func(stage string, wantN, got uint64, detail string) *Discrepancy {
		return &Discrepancy{Case: c, Stage: stage, Want: wantN, Got: got, Detail: detail}
	}
	acceptAll := func(u int, v graph.VertexID) bool { return true }
	n := g.NumVertices()
	window := func(lo, hi int) []graph.VertexID {
		if hi > n {
			hi = n
		}
		vs := make([]graph.VertexID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			vs = append(vs, graph.VertexID(v))
		}
		return vs
	}

	// Identical-pattern root batch: overlapping windows + a partition.
	rootSets := [][]graph.VertexID{
		nil, // every root
		window(0, 2*n/3),
		window(n/3, n),
		window(0, n/3),
		window(n/3, 2*n/3),
		window(2*n/3, n),
	}
	queries := make([]lanes.Query, len(rootSets))
	for i, roots := range rootSets {
		queries[i] = lanes.Query{Plan: pl, Spec: lanes.Spec{Roots: roots}}
	}
	res, err := lanes.Run(context.Background(), g, queries, parallel.Options{Workers: cfg.Workers}, nil)
	if err != nil {
		return fail("lanes/roots", want, 0, err.Error())
	}
	if len(res.Jobs) != 1 {
		return fail("lanes/roots", 1, uint64(len(res.Jobs)), "identical plans split into multiple lane groups")
	}
	for i, roots := range rootSets {
		seq := roots
		if seq == nil {
			seq = window(0, n)
		}
		solo, err := engine.New(g, pl, engine.Options{Filter: acceptAll}).RunRoots(seq, nil)
		if err != nil {
			return fail(fmt.Sprintf("lanes/roots[%d]", i), want, 0, err.Error())
		}
		if d := laneDiff(solo, res.PerQuery[i]); d != "" {
			return fail(fmt.Sprintf("lanes/roots[%d]", i), solo.Matches, res.PerQuery[i].Matches, d)
		}
	}
	if got := res.PerQuery[0].Matches; got != want {
		return fail("lanes/roots/full", want, got, "unrestricted lane disagrees with reference")
	}
	if sum := res.PerQuery[3].Matches + res.PerQuery[4].Matches + res.PerQuery[5].Matches; sum != want {
		return fail("lanes/roots/partition", want, sum, "partitioned root lanes do not sum to the reference")
	}

	// Mixed batch: per-lane narrowing plus an incompatible second plan.
	evenFilter := func(u int, v graph.VertexID) bool { return v%2 == 0 }
	mixed := []lanes.Query{
		{Plan: pl},
		{Plan: pl, Spec: lanes.Spec{MinDegree: 2}},
		{Plan: pl, Spec: lanes.Spec{Filter: evenFilter}},
	}
	refs := []func(u int, v graph.VertexID) bool{
		acceptAll,
		func(u int, v graph.VertexID) bool { return g.Degree(v) >= 2 },
		evenFilter,
	}
	wantGroups := 1
	if alt != nil {
		mixed = append(mixed, lanes.Query{Plan: alt})
		wantGroups = 2
	}
	mres, err := lanes.Run(context.Background(), g, mixed, parallel.Options{Workers: cfg.Workers}, nil)
	if err != nil {
		return fail("lanes/mixed", want, 0, err.Error())
	}
	if len(mres.Jobs) != wantGroups {
		return fail("lanes/mixed", uint64(wantGroups), uint64(len(mres.Jobs)), "unexpected lane-group count")
	}
	for i, ref := range refs {
		solo, err := engine.New(g, pl, engine.Options{Filter: ref}).Run(nil)
		if err != nil {
			return fail(fmt.Sprintf("lanes/mixed[%d]", i), want, 0, err.Error())
		}
		if d := laneDiff(solo, mres.PerQuery[i]); d != "" {
			return fail(fmt.Sprintf("lanes/mixed[%d]", i), solo.Matches, mres.PerQuery[i].Matches, d)
		}
	}
	if alt != nil {
		solo, err := engine.New(g, alt, engine.Options{Filter: acceptAll}).Run(nil)
		if err != nil {
			return fail("lanes/mixed/alt-order", want, 0, err.Error())
		}
		if d := laneDiff(solo, mres.PerQuery[3]); d != "" {
			return fail("lanes/mixed/alt-order", solo.Matches, mres.PerQuery[3].Matches, d)
		}
		if solo.Matches != want {
			return fail("lanes/mixed/alt-order", want, solo.Matches, "alternative order disagrees with reference")
		}
	}
	return nil
}

// laneDiff compares a sequential reference run's counters with a lane's
// attributed counters; empty means exact equality.
func laneDiff(s engine.Result, l engine.LaneCounts) string {
	got := engine.LaneCounts{Matches: s.Matches, Nodes: s.Nodes, Comps: s.Comps, Stats: s.Stats}
	if got == l {
		return ""
	}
	return fmt.Sprintf("sequential %+v vs lane %+v", got, l)
}
