package lanes

import (
	"context"
	"fmt"

	"light/internal/admission"
	"light/internal/arena"
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

// Options configure a batch run. Engine options (kernel, δ, deadline,
// degree filter) are batch-wide: every group runs under the same
// configuration, which is what makes the shared traversal's counters
// attributable. Engine.Lanes and Engine.Filter must be nil — lanes are
// built per group, and per-query filters belong in each Spec.
type Options struct {
	// Engine configures every group's enumerators. Engine.Metrics,
	// when non-nil, receives the batch's shared (actually-performed)
	// work; per-query counters go to Recorders.
	Engine engine.Options
	// Workers per group (the groups run sequentially, each using the
	// full pool); defaults to GOMAXPROCS via the parallel layer.
	Workers int
	// Gate, when non-nil, is the batch's single admission under a
	// shared governor: one grant covers every group, workers re-check
	// it at scheduling boundaries, and slots shed to waiting queries
	// stay shed for the remaining groups.
	Gate *admission.Admission
	// MemLimiter, when non-nil, budgets every worker's candidate arena.
	MemLimiter *arena.Limiter
	// Watchdog, when non-nil, enables the stall watchdog per group.
	Watchdog *admission.WatchdogConfig
	// Recorders, when non-nil, must have one entry per query (nil
	// entries allowed); query i's exact attributed counters are folded
	// into Recorders[i], giving each query an individually-reportable
	// metrics snapshot.
	Recorders []*metrics.Recorder
}

// Result is a batch run's outcome.
type Result struct {
	// PerQuery holds query i's exactly-attributed counters — equal to
	// what a sequential run of that query alone would report.
	PerQuery []engine.LaneCounts
	// Groups is how many lane groups (shared traversals) the batch
	// compiled into; Workers is the largest pool any group ran with.
	Groups  int
	Workers int
	// CandidateMemBytes sums candidate-buffer memory across groups.
	CandidateMemBytes int64
	// SlotsShed and Stalls aggregate governor events across groups.
	SlotsShed uint64
	Stalls    uint64
	// Stopped reports an early stop (context cancellation) — PerQuery
	// is then partial and not attributable.
	Stopped bool
}

// Run executes the batch: queries are grouped by plan compatibility,
// each group packs into one LaneProber (≤64 lanes; larger groups split)
// and runs through the parallel work-stealing scheduler as a single
// shared traversal. Groups run sequentially — each already scales to
// the full worker pool — under one admission grant.
func Run(ctx context.Context, g *graph.Graph, queries []Query, opts Options) (Result, error) {
	res := Result{PerQuery: make([]engine.LaneCounts, len(queries))}
	if len(queries) == 0 {
		return res, nil
	}
	if opts.Engine.Lanes != nil || opts.Engine.Filter != nil {
		return res, fmt.Errorf("lanes: Options.Engine must not set Lanes or Filter (per-query state belongs in Specs)")
	}
	if opts.Recorders != nil && len(opts.Recorders) != len(queries) {
		return res, fmt.Errorf("lanes: %d recorders for %d queries", len(opts.Recorders), len(queries))
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
	res.Groups = len(groups)
	for _, grp := range groups {
		if ctx != nil && ctx.Err() != nil {
			res.Stopped = true
			return res, ctx.Err()
		}
		specs := make([]Spec, len(grp))
		for lane, qi := range grp {
			specs[lane] = queries[qi].Spec
		}
		// Root bitsets must span the queried view: an overlay can add
		// vertices beyond the base CSR's count.
		nv := g.NumVertices()
		if opts.Engine.Overlay != nil {
			nv = opts.Engine.Overlay.NumVertices()
		}
		set, err := NewSet(nv, specs)
		if err != nil {
			return res, err
		}
		popts := parallel.Options{
			Engine:     opts.Engine,
			Workers:    opts.Workers,
			Gate:       opts.Gate,
			MemLimiter: opts.MemLimiter,
			Watchdog:   opts.Watchdog,
		}
		popts.Engine.Lanes = set
		// Under a governor, earlier groups may have shed slots to
		// waiting queries; the pool must not spawn more workers than
		// the admission still holds (held slots == live workers is the
		// shed protocol's invariant).
		if opts.Gate != nil {
			if held := opts.Gate.Slots(); popts.Workers <= 0 || held < popts.Workers {
				popts.Workers = held
			}
		}
		pres, err := parallel.RunContext(ctx, g, queries[grp[0]].Plan, popts, nil)
		res.CandidateMemBytes += pres.CandidateMemBytes
		res.SlotsShed += pres.SlotsShed
		res.Stalls += pres.Stalls
		if pres.Workers > res.Workers {
			res.Workers = pres.Workers
		}
		for lane, qi := range grp {
			if lane < len(pres.Lanes) {
				res.PerQuery[qi] = pres.Lanes[lane]
			}
		}
		if err != nil || pres.Stopped {
			res.Stopped = res.Stopped || pres.Stopped
			return res, err
		}
		if err := foldGroup(grp, pres.Lanes, opts.Recorders); err != nil {
			return res, err
		}
	}
	return res, nil
}

// foldGroup folds each lane's attributed counters into its query's
// recorder, through the same fold a whole run's counters take.
func foldGroup(grp []int, lanes []engine.LaneCounts, recorders []*metrics.Recorder) error {
	if recorders == nil {
		return nil
	}
	if err := faultpoint.Hit(faultpoint.PointLaneFold); err != nil {
		return fmt.Errorf("lanes: lane fold: %w", err)
	}
	for lane, qi := range grp {
		if lane < len(lanes) {
			lanes[lane].AddTo(recorders[qi])
		}
	}
	return nil
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
