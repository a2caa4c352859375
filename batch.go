package light

import (
	"context"
	"fmt"
	"time"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/lanes"
	"light/internal/parallel"
)

// BatchQuery is one member of a CountBatch: a pattern plus optional
// query-specific narrowing. Queries with the same pattern (and batch
// options) compile to structurally identical plans and are packed into
// one bit-parallel lane group — the engine walks their shared search
// tree once, so a batch of overlapping queries costs far less than
// running them one by one.
type BatchQuery struct {
	// Pattern is the pattern to enumerate (required).
	Pattern *Pattern
	// Roots, when non-nil, restricts this query to matches whose root
	// pattern vertex (the first vertex of the chosen enumeration
	// order) maps into this set of data vertices. IDs are in the
	// graph's degree-ordered numbering, as returned in results and by
	// Graph.MapVertex.
	Roots []VertexID
	// MinDegree, when positive, restricts this query to matches using
	// only data vertices of at least this degree — the degree-profile
	// analytics knob. Equivalent to a sequential run whose Filter
	// rejects lower-degree vertices, but evaluated bit-parallel across
	// the whole lane word in one ladder lookup.
	MinDegree int
	// Filter, when non-nil, must approve every (pattern vertex, data
	// vertex) assignment for this query; same contract as
	// Options.Filter.
	Filter func(u int, v VertexID) bool
}

// BatchResult reports a CountBatch run.
type BatchResult struct {
	// Queries holds one Result per input query, in order. Counters
	// (Matches, Nodes, Intersections, and each Report's engine
	// counters) are exactly what a sequential run of that query alone
	// would report; after a stop they are partial, in Report as in the
	// Result. Duration and CandidateMemoryBytes describe the shared
	// batch run and repeat on every entry.
	Queries []Result
	// Groups is how many shared traversals (lane groups) the batch
	// compiled into — batches of one pattern family run in a single
	// pass.
	Groups int
	// Workers is the size of the one worker pool every group ran on.
	Workers int
	// Duration is the whole batch's wall-clock time.
	Duration time.Duration
	// Degradations lists graceful-degradation events (reduced
	// admission, shed workers, arena pressure) for the batch.
	Degradations []string
}

// CountBatch evaluates up to hundreds of queries against one graph in
// bit-parallel lanes (64 queries per machine word per group),
// returning each query's exact individual count and counters. All
// queries run under opts' shared configuration (algorithm, kernel,
// workers, time limit, governor); per-query state lives in each
// BatchQuery. Every lane group runs on one worker pool; under a
// Governor the whole batch is admitted once.
//
// Options.Filter, CheckpointPath, and ResumeFrom do not apply to
// batches (per-query filters belong in BatchQuery) and are rejected
// with ErrUnsupportedOption. Lane batches always take the full leaf
// loop, so their counters are those of filtered Counts (see
// Options.Filter), not of an unfiltered Count's counted tail.
func CountBatch(g *Graph, queries []BatchQuery, opts Options) (BatchResult, error) {
	return CountBatchContext(context.Background(), g, queries, opts)
}

// CountBatchContext is CountBatch under a context: cancellation stops
// the batch at its next poll and returns partial, non-attributable
// results with the context's error.
func CountBatchContext(ctx context.Context, g *Graph, queries []BatchQuery, opts Options) (BatchResult, error) {
	var bres BatchResult
	if err := opts.validate(); err != nil {
		return bres, err
	}
	switch {
	case opts.Filter != nil:
		return bres, fmt.Errorf("%w: CountBatch does not take Options.Filter; set per-query BatchQuery.Filter instead", ErrUnsupportedOption)
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return bres, fmt.Errorf("%w: CountBatch does not support checkpointing", ErrUnsupportedOption)
	}
	if len(queries) == 0 {
		return bres, nil
	}
	st, err := g.resolveState(opts.Snapshot)
	if err != nil {
		return bres, err
	}

	// Compile one plan per query; identical patterns compile to
	// identical plans and group automatically by compatibility key.
	lq := make([]lanes.Query, len(queries))
	maxPatternVerts := 0
	for i, q := range queries {
		if q.Pattern == nil {
			return bres, fmt.Errorf("light: batch query %d has no pattern", i)
		}
		pl, err := preparePlan(st, q.Pattern, opts)
		if err != nil {
			return bres, fmt.Errorf("light: batch query %d (%s): %w", i, q.Pattern.Name(), err)
		}
		if n := q.Pattern.NumVertices(); n > maxPatternVerts {
			maxPatternVerts = n
		}
		spec := lanes.Spec{MinDegree: q.MinDegree}
		if q.Roots != nil {
			roots := make([]graph.VertexID, len(q.Roots))
			copy(roots, q.Roots)
			spec.Roots = roots
		}
		if q.Filter != nil {
			spec.Filter = q.Filter
		}
		lq[i] = lanes.Query{Plan: pl, Spec: spec}
	}

	// Governance: one admission grant for the whole batch, the memory
	// budget chained under the governor's, and the degradation ladder
	// sized against the largest pattern in the batch.
	popts := parallel.Options{Engine: engine.Options{
		Kernel:    opts.Intersection.kind(),
		TimeLimit: opts.TimeLimit,
	}}
	start := time.Now()
	var perQuery []engine.LaneCounts
	r, err := opts.governed(ctx, st.view.MaxDegree(), maxPatternVerts, popts, func(popts parallel.Options) (parallel.Result, error) {
		lres, err := lanes.Run(ctx, st.view, lq, popts)
		perQuery = lres.PerQuery
		return lres.Result, err
	})
	if r == nil {
		return bres, err
	}
	bres.Duration = time.Since(start)
	bres.Groups = len(r.Jobs)
	bres.Workers = r.Workers
	bres.Degradations = r.degradations
	bres.Queries = make([]Result, len(queries))
	for i := range queries {
		lc := &perQuery[i]
		q := Result{
			Matches:              lc.Matches,
			Intersections:        lc.Stats.Intersections,
			GallopingPercent:     lc.Stats.GallopingPercent(),
			Nodes:                lc.Nodes,
			Duration:             bres.Duration,
			CandidateMemoryBytes: r.CandidateMemBytes,
			Stopped:              r.Stopped,
		}
		q.Order = make([]int, len(lq[i].Plan.Pi))
		copy(q.Order, lq[i].Plan.Pi)
		q.Report = newRunReport(opts, st, bres.Duration, r, lc)
		bres.Queries[i] = q
	}
	return bres, mapErr(err)
}
