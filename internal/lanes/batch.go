package lanes

import (
	"context"
	"fmt"

	"light/internal/engine"
	"light/internal/faultpoint"
	"light/internal/graph"
	"light/internal/metrics"
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
// traversal's counters attributable. opts.Engine.Overlay is the queried
// view's edge delta over g; opts.Engine.Lanes and Filter must be nil —
// lanes are built per group, and per-query filters belong in each Spec.
// opts.Engine.Metrics, when non-nil, receives the batch's shared
// (actually-performed) work. recorders, when non-nil, must have one entry
// per query (nil entries allowed); query i's exact attributed counters
// are folded into recorders[i], giving each query an
// individually-reportable metrics snapshot.
func Run(ctx context.Context, g *graph.Graph, queries []Query, opts parallel.Options, recorders []*metrics.Recorder) (Result, error) {
	res := Result{PerQuery: make([]engine.LaneCounts, len(queries))}
	if len(queries) == 0 {
		return res, nil
	}
	if opts.Engine.Lanes != nil || opts.Engine.Filter != nil {
		return res, fmt.Errorf("lanes: Options.Engine must not set Lanes or Filter (per-query state belongs in Specs)")
	}
	if recorders != nil && len(recorders) != len(queries) {
		return res, fmt.Errorf("lanes: %d recorders for %d queries", len(recorders), len(queries))
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
	// Root bitsets must span the queried view: an overlay can add
	// vertices beyond the base CSR's count.
	ov := opts.Engine.Overlay
	nv := g.NumVertices()
	if ov != nil {
		nv = ov.NumVertices()
	}
	jobs := make([]parallel.Job, len(groups))
	for gi, grp := range groups {
		specs := make([]Spec, len(grp))
		for lane, qi := range grp {
			specs[lane] = queries[qi].Spec
		}
		set, err := NewSet(nv, specs)
		if err != nil {
			return res, err
		}
		jobs[gi] = parallel.Job{Graph: g, Overlay: ov, Plan: queries[grp[0]].Plan, Lanes: set}
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
	if err != nil || pres.Stopped || recorders == nil {
		return res, err
	}
	// Fold each query's attributed counters into its recorder, through
	// the same fold a whole run's counters take.
	if err := faultpoint.Hit(faultpoint.PointLaneFold); err != nil {
		return res, fmt.Errorf("lanes: lane fold: %w", err)
	}
	for qi, lc := range res.PerQuery {
		lc.AddTo(recorders[qi])
	}
	return res, nil
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
