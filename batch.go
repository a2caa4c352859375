package light

import (
	"context"
	"fmt"
	"time"

	"light/internal/engine"
	"light/internal/faultpoint"
	"light/internal/lanes"
	"light/internal/parallel"
	"light/internal/plan"
)

// BatchQuery is one member of a CountBatch: a pattern plus optional
// query-specific narrowing. Queries with the same pattern (and batch
// options) compile to structurally identical plans and are packed into
// one bit-parallel lane group — the engine walks their shared search
// tree once, so a batch of overlapping narrowed queries costs far less
// than running them one by one.
type BatchQuery struct {
	// Pattern is the pattern to enumerate (required).
	Pattern *Pattern
	// Roots, when non-nil, restricts this query to matches whose root
	// pattern vertex (the first vertex of the chosen enumeration
	// order) maps into this set of data vertices. IDs are in the
	// graph's degree-ordered numbering, as returned in results.
	Roots []VertexID
	// MinDegree, when positive, restricts this query to matches using
	// only data vertices of at least this degree — the degree-profile
	// analytics knob. Equivalent to a sequential run whose Filter
	// rejects lower-degree vertices, but evaluated bit-parallel across
	// the whole lane word in one ladder lookup.
	MinDegree int
}

// BatchResult reports a CountBatch run.
type BatchResult struct {
	// Queries holds one Result per input query, in order, whatever the
	// error: a batch that stops before it runs (rejected, refused at
	// admission, or cancelled during plan search) reports each query as
	// a zero Result with Stopped set and a nil Report. Counters
	// (Matches, Nodes, Intersections, and each Report's engine
	// counters) are exactly what a sequential run of that query alone
	// would report; after a stop they are partial, in Report as in the
	// Result. Duration and CandidateMemoryBytes describe the shared
	// batch run and repeat on every entry.
	Queries []Result
	// Groups is how many shared traversals the batch compiled into:
	// one per distinct plan (up to 64 queries each), so batches of one
	// pattern family run in a single pass.
	Groups int
	// Workers is the size of the one worker pool every group ran on.
	Workers int
	// Duration is the whole batch's wall-clock time.
	Duration time.Duration
	// Degradations lists the batch's degradation events (reduced
	// admission, watchdog stalls).
	Degradations []string
}

// CountBatch evaluates up to hundreds of queries against one graph,
// returning each query's exact individual count and counters. Queries
// with the same plan share one traversal, packed 64 per machine word
// in bit-parallel lanes; a query whose plan no other query shares, with
// no Roots and no MinDegree, runs as a plain Count and reports Count's
// counters. All queries run under opts' shared configuration
// (algorithm, kernel, workers, time limit, governor); per-query state
// lives in each BatchQuery. Every group runs on one worker pool; under
// a Governor the whole batch is admitted once.
//
// Options.Filter, CheckpointPath, and ResumeFrom do not apply to
// batches and are rejected with ErrUnsupportedOption: a filtered query
// is a Count with Options.Filter. A lane group walks every level to the
// leaves, so its queries' counters are those of filtered Counts (see
// Options.Filter), not of an unfiltered Count's counted tail.
func CountBatch(g *Graph, queries []BatchQuery, opts Options) (BatchResult, error) {
	return CountBatchContext(context.Background(), g, queries, opts)
}

// CountBatchContext is CountBatch under a context: cancellation stops
// the batch at its next poll and returns partial, non-attributable
// results with the context's error.
func CountBatchContext(ctx context.Context, g *Graph, queries []BatchQuery, opts Options) (BatchResult, error) {
	var bres BatchResult
	// stop ends a batch that ran nothing: every query stopped at zero.
	stop := func(err error) (BatchResult, error) {
		bres.Queries = make([]Result, len(queries))
		for i := range bres.Queries {
			bres.Queries[i].Stopped = true
		}
		return bres, err
	}
	if err := opts.validate(); err != nil {
		return stop(err)
	}
	switch {
	case opts.Filter != nil:
		return stop(fmt.Errorf("%w: CountBatch does not take Options.Filter; run a filtered query as a Count", ErrUnsupportedOption))
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return stop(fmt.Errorf("%w: CountBatch does not support checkpointing", ErrUnsupportedOption))
	}
	if len(queries) == 0 {
		return bres, nil
	}
	st, err := g.resolveState(opts.Snapshot)
	if err != nil {
		return stop(err)
	}

	// Compile one plan per query; identical patterns compile to
	// identical plans and group by compatibility key.
	plans := make([]*plan.Plan, len(queries))
	for i, q := range queries {
		if q.Pattern == nil {
			return stop(fmt.Errorf("light: batch query %d has no pattern", i))
		}
		pl, err := preparePlan(ctx, st, q.Pattern, opts)
		if err != nil {
			if ctx.Err() != nil {
				return stop(context.Cause(ctx)) // stopped before any query ran
			}
			return stop(fmt.Errorf("light: batch query %d (%s): %w", i, q.Pattern.Name(), err))
		}
		plans[i] = pl
	}

	// One job per group. A lone unnarrowed query is a plain job, Count's
	// path with its counted tail; every other group shares a lane set.
	groups := groupQueries(plans)
	jobs := make([]parallel.Job, len(groups))
	for gi, grp := range groups {
		jobs[gi] = parallel.Job{View: st.view, Plan: plans[grp[0]]}
		if q := queries[grp[0]]; len(grp) == 1 && q.Roots == nil && q.MinDegree <= 0 {
			continue
		}
		specs := make([]lanes.Spec, len(grp))
		for lane, qi := range grp {
			specs[lane] = lanes.Spec{Roots: queries[qi].Roots, MinDegree: queries[qi].MinDegree}
		}
		// Root masks span the view: an overlay can add vertices beyond
		// the base CSR's count.
		set, err := lanes.NewSet(st.view.NumVertices(), specs)
		if err != nil {
			return stop(err)
		}
		jobs[gi].Lanes = set
	}

	// Governance: one admission grant and one memory budget for the
	// whole batch.
	popts := parallel.Options{Engine: engine.Options{Kernel: opts.Intersection.kind()}}
	start := time.Now()
	r, err := opts.governed(ctx, popts, func(ctx context.Context, popts parallel.Options) (parallel.Result, error) {
		if err := faultpoint.Hit(faultpoint.PointBatchAdmit); err != nil {
			return parallel.Result{}, fmt.Errorf("light: batch admission: %w", err)
		}
		return parallel.RunJobs(ctx, popts, jobs)
	})
	if r == nil {
		return stop(err) // refused at admission
	}
	bres.Duration = time.Since(start)
	bres.Groups = len(groups)
	bres.Workers = r.Workers
	bres.Degradations = r.degradations
	perQuery := make([]engine.LaneCounts, len(queries))
	for gi, jr := range r.Jobs {
		if jobs[gi].Lanes == nil {
			perQuery[groups[gi][0]] = engine.LaneCounts{Matches: jr.Matches, Nodes: jr.Nodes, Comps: jr.Comps, Stats: jr.Stats}
			continue
		}
		for lane, qi := range groups[gi] {
			if lane < len(jr.Lanes) {
				perQuery[qi] = jr.Lanes[lane]
			}
		}
	}
	bres.Queries = make([]Result, len(queries))
	for i := range queries {
		lc := &perQuery[i]
		q := Result{
			Matches:              lc.Matches,
			Intersections:        lc.Stats.Intersections,
			GallopingPercent:     lc.Stats.GallopingPercent(),
			Nodes:                lc.Nodes,
			Duration:             bres.Duration,
			Order:                make([]int, len(plans[i].Pi)),
			CandidateMemoryBytes: r.CandidateMemBytes,
			Stopped:              r.Stopped,
		}
		copy(q.Order, plans[i].Pi)
		q.Report = newRunReport(opts, st, bres.Duration, r, lc)
		bres.Queries[i] = q
	}
	return bres, mapErr(err)
}

// groupQueries partitions query indices into shared traversals: queries
// with equal plan CompatKeys share a group, in first-appearance order,
// and groups larger than 64 split into word-sized chunks.
func groupQueries(plans []*plan.Plan) [][]int {
	byKey := map[string]int{}
	var groups [][]int
	for i, pl := range plans {
		key := pl.CompatKey()
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
