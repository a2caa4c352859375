package lanes

import (
	"context"
	"fmt"

	"light/internal/delta"
	"light/internal/engine"
	"light/internal/faultpoint"
	"light/internal/parallel"
	"light/internal/plan"
)

// Query is one batch member: a compiled plan plus this query's lane
// spec. Queries whose plans share a CompatKey are packed into the same
// lane group and executed in one traversal.
type Query struct {
	Plan *plan.Plan
	Spec Spec
}

// Result is a batch run's outcome: the one pool run, with one job per
// lane group (shared traversal) in Jobs, plus each query's share of it.
type Result struct {
	parallel.Result
	// PerQuery holds query i's exactly-attributed counters — equal to
	// what a sequential run of that query alone would report. After an
	// early stop (Stopped) it is partial and not attributable.
	PerQuery []engine.LaneCounts
}

// Run executes the batch as one pool run: queries are grouped by plan
// compatibility, each group packs into one LaneProber (≤64 lanes; larger
// groups split) and becomes one job, a single shared traversal, and the
// jobs of all groups run together on the parallel pool.
//
// opts configures that pool and is batch-wide: every group runs under
// the same engine configuration, which is what makes the shared
// traversal's counters attributable. view is the queried snapshot;
// opts.Engine.Overlay, Lanes and Filter must be nil — every job reads
// view, lanes are built per group, and per-query filters belong in each
// Spec. The result's own counters are the batch's shared
// (actually-performed) work; PerQuery splits it per query.
func Run(ctx context.Context, view delta.View, queries []Query, opts parallel.Options) (Result, error) {
	res := Result{PerQuery: make([]engine.LaneCounts, len(queries))}
	if len(queries) == 0 {
		return res, nil
	}
	if opts.Engine.Overlay != nil || opts.Engine.Lanes != nil || opts.Engine.Filter != nil {
		return res, fmt.Errorf("lanes: Options.Engine must not set Overlay, Lanes or Filter (the view is Run's argument; per-query state belongs in Specs)")
	}
	for i, q := range queries {
		if q.Plan == nil {
			return res, fmt.Errorf("lanes: query %d has no plan", i)
		}
	}
	if err := faultpoint.Hit(faultpoint.PointBatchAdmit); err != nil {
		return res, fmt.Errorf("lanes: batch admission: %w", err)
	}

	groups := groupQueries(queries)
	jobs := make([]parallel.Job, len(groups))
	for gi, grp := range groups {
		specs := make([]Spec, len(grp))
		for lane, qi := range grp {
			specs[lane] = queries[qi].Spec
		}
		// Root bitsets span the view: an overlay can add vertices
		// beyond the base CSR's count.
		set, err := NewSet(view.NumVertices(), specs)
		if err != nil {
			return res, err
		}
		jobs[gi] = parallel.Job{View: view, Plan: queries[grp[0]].Plan, Lanes: set}
	}
	pres, err := parallel.RunJobs(ctx, opts, jobs)
	res.Result = pres
	for gi, jr := range pres.Jobs {
		for lane, qi := range groups[gi] {
			if lane < len(jr.Lanes) {
				res.PerQuery[qi] = jr.Lanes[lane]
			}
		}
	}
	return res, err
}

// groupQueries partitions query indices into lane groups: queries with
// equal plan CompatKeys share a group, in first-appearance order, and
// groups larger than 64 split into word-sized chunks.
func groupQueries(queries []Query) [][]int {
	byKey := map[string]int{}
	var groups [][]int
	for i, q := range queries {
		key := q.Plan.CompatKey()
		gi, ok := byKey[key]
		if !ok || len(groups[gi]) >= 64 {
			groups = append(groups, nil)
			gi = len(groups) - 1
			byKey[key] = gi
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}
