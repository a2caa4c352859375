package diffcheck

import (
	"context"
	"fmt"

	"light/internal/delta"
	"light/internal/engine"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/lanes"
	"light/internal/parallel"
	"light/internal/plan"
)

// checkLanes runs the case lane-batched and demands every lane's
// attributed counters equal its sequential reference, two ways:
//
//   - an identical-pattern root batch: one lane set of six lanes over
//     the same plan whose root sets are the full graph, two overlapping
//     windows, and a three-way partition — each lane checked against a
//     sequential RunRoots over exactly that subset, plus the
//     partition's counts summing to the reference;
//   - a mixed run, CountBatch's shape: a lane set of the case plan
//     unrestricted and degree-thresholded, beside (when the pattern
//     admits a second connected order) a plain job of the incompatible
//     plan — each lane checked against a sequential run under the
//     equivalent engine filter, and the plain job against an unfiltered
//     sequential run.
//
// Every run uses kernel. Both run through parallel.RunJobs at
// cfg.Workers, so their root chunks spread across workers; counter
// equality is partition-independent for the same reason it is in
// counterDiff. Lanes walk every level to the leaves, so every lane's
// sequential reference runs under a filter, acceptAll where the lane has
// none: an unfiltered count-only run counts its trailing levels instead.
func checkLanes(c Case, g *graph.Graph, pl, alt *plan.Plan, want uint64, cfg Config, kernel intersect.Kind) *Discrepancy {
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
	view := delta.NewView(g, nil)
	popts := parallel.Options{Workers: cfg.Workers, Engine: engine.Options{Kernel: kernel}}

	// Identical-pattern root batch: overlapping windows + a partition.
	rootSets := [][]graph.VertexID{
		nil, // every root
		window(0, 2*n/3),
		window(n/3, n),
		window(0, n/3),
		window(n/3, 2*n/3),
		window(2*n/3, n),
	}
	specs := make([]lanes.Spec, len(rootSets))
	for i, roots := range rootSets {
		specs[i] = lanes.Spec{Roots: roots}
	}
	set, err := lanes.NewSet(n, specs)
	if err != nil {
		return fail("lanes/roots", want, 0, err.Error())
	}
	res, err := parallel.RunJobs(context.Background(), popts, []parallel.Job{{View: view, Plan: pl, Lanes: set}})
	if err != nil {
		return fail("lanes/roots", want, 0, err.Error())
	}
	perLane := res.Jobs[0].Lanes
	for i, roots := range rootSets {
		seq := roots
		if seq == nil {
			seq = window(0, n)
		}
		solo, err := engine.New(g, pl, engine.Options{Kernel: kernel, Filter: acceptAll}).RunRoots(seq, nil)
		if err != nil {
			return fail(fmt.Sprintf("lanes/roots[%d]", i), want, 0, err.Error())
		}
		if d := laneDiff(solo, perLane[i]); d != "" {
			return fail(fmt.Sprintf("lanes/roots[%d]", i), solo.Matches, perLane[i].Matches, d)
		}
	}
	if got := perLane[0].Matches; got != want {
		return fail("lanes/roots/full", want, got, "unrestricted lane disagrees with reference")
	}
	if sum := perLane[3].Matches + perLane[4].Matches + perLane[5].Matches; sum != want {
		return fail("lanes/roots/partition", want, sum, "partitioned root lanes do not sum to the reference")
	}

	// Mixed run: a degree-narrowed lane set beside a plain job.
	set, err = lanes.NewSet(n, []lanes.Spec{{}, {MinDegree: 2}})
	if err != nil {
		return fail("lanes/mixed", want, 0, err.Error())
	}
	jobs := []parallel.Job{{View: view, Plan: pl, Lanes: set}}
	if alt != nil {
		jobs = append(jobs, parallel.Job{View: view, Plan: alt})
	}
	mres, err := parallel.RunJobs(context.Background(), popts, jobs)
	if err != nil {
		return fail("lanes/mixed", want, 0, err.Error())
	}
	for i, ref := range []func(u int, v graph.VertexID) bool{
		acceptAll,
		func(u int, v graph.VertexID) bool { return g.Degree(v) >= 2 },
	} {
		solo, err := engine.New(g, pl, engine.Options{Kernel: kernel, Filter: ref}).Run(nil)
		if err != nil {
			return fail(fmt.Sprintf("lanes/mixed[%d]", i), want, 0, err.Error())
		}
		if d := laneDiff(solo, mres.Jobs[0].Lanes[i]); d != "" {
			return fail(fmt.Sprintf("lanes/mixed[%d]", i), solo.Matches, mres.Jobs[0].Lanes[i].Matches, d)
		}
	}
	if alt != nil {
		solo, err := engine.New(g, alt, engine.Options{Kernel: kernel}).Run(nil)
		if err != nil {
			return fail("lanes/mixed/alt-order", want, 0, err.Error())
		}
		got := mres.Jobs[1]
		if d := laneDiff(solo, engine.LaneCounts{Matches: got.Matches, Nodes: got.Nodes, Comps: got.Comps, Stats: got.Stats}); d != "" {
			return fail("lanes/mixed/alt-order", solo.Matches, got.Matches, d)
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
