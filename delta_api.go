package light

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"light/internal/delta"
	"light/internal/engine"
	"light/internal/graph"
	"light/internal/parallel"
	"light/internal/pattern"
	"light/internal/plan"
)

// ErrUnsupportedOption is wrapped by the error an entry point returns
// when it is given an Options field it cannot honour (test with
// errors.Is); the message names the field and the reason.
var ErrUnsupportedOption = errors.New("light: unsupported option")

// DeltaResult reports a CountDelta run: how the match count changed
// between two snapshots of the same graph.
type DeltaResult struct {
	// Gained is the number of matches present in the `to` snapshot that
	// use at least one edge added between the snapshots.
	Gained uint64
	// Lost is the number of matches present in the `from` snapshot that
	// use at least one edge removed between the snapshots.
	Lost uint64
	// Net is Gained - Lost: count(to) == count(from) + Net.
	Net int64
	// AddedEdges and RemovedEdges are the effective edge-delta sizes
	// between the snapshots (after cancellation across batches).
	AddedEdges   int
	RemovedEdges int
	// FromGeneration and ToGeneration identify the two snapshots.
	FromGeneration uint64
	ToGeneration   uint64
	// Anchors is the number of starting points the run searched from:
	// changed edges times the ordered pattern edges they were pinned to
	// (orientations the symmetry-breaking order rules out, and anchors
	// Options.Filter rejects, are not run and not counted).
	Anchors int
	// Nodes is the number of search-tree nodes expanded below those
	// anchors — the run's work, proportional to the changed edges'
	// neighbourhoods rather than to the graph.
	Nodes uint64
	// Duration is the wall-clock time of the anchored searches,
	// planning included.
	Duration time.Duration
}

// CountDelta counts how the number of matches of p changed between two
// snapshots of g without enumerating the graph: the search starts at
// the changed edges. For every ordered pattern edge (a, b) one plan
// whose order begins π = (a, b, …) is compiled, and it is run with the
// pair pinned to each changed edge, so only embeddings that use a
// changed edge are ever extended; the cost is proportional to the
// number of changed edges times the size of their neighbourhoods, not
// to |G|. The identity
//
//	count(to) == count(from) + result.Net
//
// holds exactly: a match is gained iff it exists in `to` and uses an
// added edge, lost iff it exists in `from` and uses a removed edge, and
// matches using neither survive unchanged in both views. Gained and
// Lost are each exact too: the plans keep the pattern's
// symmetry-breaking order, so they reach the same embeddings a full
// enumeration visits, and an embedding whose image holds several
// changed edges is counted only from the smallest of them.
//
// Both snapshots must come from g (in either generation order — Net is
// simply negative when `to` predates `from`'s additions). Workers,
// TimeLimit, the kernel, the algorithm, Governor and MemoryBudget apply
// to the whole call: one admission covers it, and one pool runs both
// sides. Options.Filter, when set, narrows both sides exactly as it
// narrows Count (the identity then holds for the filtered counts); it may
// be called from several workers at once. Snapshot, CheckpointPath, and
// ResumeFrom are rejected with ErrUnsupportedOption.
func CountDelta(g *Graph, p *Pattern, from, to *Snapshot, opts Options) (DeltaResult, error) {
	return CountDeltaContext(context.Background(), g, p, from, to, opts)
}

// CountDeltaContext is CountDelta under a context: cancellation stops
// the anchored searches at their next poll and returns
// context.Cause(ctx).
func CountDeltaContext(ctx context.Context, g *Graph, p *Pattern, from, to *Snapshot, opts Options) (DeltaResult, error) {
	var dr DeltaResult
	if ctx == nil {
		ctx = context.Background()
	}
	if from == nil || to == nil {
		return dr, errNilSnapshot
	}
	if from.owner != g || to.owner != g {
		return dr, errors.New("light: CountDelta snapshots belong to a different Graph")
	}
	if err := opts.validate(); err != nil {
		return dr, err
	}
	switch {
	case opts.Snapshot != nil:
		return dr, fmt.Errorf("%w: CountDelta does not take Options.Snapshot (pass the snapshots directly)", ErrUnsupportedOption)
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return dr, fmt.Errorf("%w: CountDelta does not support checkpointing", ErrUnsupportedOption)
	}
	added, removed := delta.Diff(from.st.view, to.st.view)
	dr.AddedEdges, dr.RemovedEdges = len(added), len(removed)
	dr.FromGeneration, dr.ToGeneration = from.st.gen, to.st.gen
	if len(added)+len(removed) == 0 {
		return dr, nil
	}

	start := time.Now()
	plans, err := anchoredPlans(ctx, to.st, p, opts)
	if err != nil {
		return dr, err
	}
	// The lost jobs read `from`, which may sit on a different base CSR
	// than `to` across a Compact.
	gained := newDeltaSide(to.st, added, plans, p.p.Edges(), opts.Filter)
	lost := newDeltaSide(from.st, removed, plans, p.p.Edges(), opts.Filter)
	jobs := append(gained.jobs, lost.jobs...)
	popts := parallel.Options{Engine: engine.Options{
		Kernel: opts.Intersection.kind(),
		Filter: opts.Filter,
	}}
	pres, err := opts.governed(ctx, popts, func(ctx context.Context, popts parallel.Options) (parallel.Result, error) {
		return parallel.RunJobs(ctx, popts, jobs)
	})
	if pres == nil {
		return dr, err
	}
	if err == nil {
		dr.Gained = gained.matches(pres.Jobs[:len(gained.jobs)])
		dr.Lost = lost.matches(pres.Jobs[len(gained.jobs):])
	}
	dr.Net = int64(dr.Gained) - int64(dr.Lost)
	dr.Anchors, dr.Nodes = gained.anchors+lost.anchors, pres.Nodes
	dr.Duration = time.Since(start)
	return dr, mapErr(err)
}

// anchoredPlans compiles one plan per ordered pattern edge (a, b) that
// can hold a changed edge with its smaller endpoint on a: the cheapest
// order starting π = (a, b, …), under the pattern's ordinary
// symmetry-breaking constraints. Anchors always map π[0] to the smaller
// endpoint, so an orientation the partial order forces the other way
// round (b < a) has no embeddings and gets no plan. Plans depend on the
// pattern only — never on the delta edges.
func anchoredPlans(ctx context.Context, st *snapshotState, p *Pattern, opts Options) ([]*plan.Plan, error) {
	po := pattern.SymmetryBreaking(p.p)
	stats := st.planStats()
	var plans []*plan.Plan
	for _, e := range p.p.Edges() {
		for _, ab := range [2][2]pattern.Vertex{{e[0], e[1]}, {e[1], e[0]}} {
			a, b := ab[0], ab[1]
			if po.Less[b]&(1<<uint(a)) != 0 {
				continue
			}
			pl, err := plan.ChooseAnchored(ctx, p.p, po, stats, opts.Algorithm.mode(), a, b)
			if err != nil {
				return nil, err
			}
			plans = append(plans, pl)
		}
	}
	return plans, nil
}

// deltaSide is one side of a CountDelta call: the anchored jobs that
// reach the matches of one view using at least one of its changed edges,
// the anchors they search from, and the repeats their visitors reject.
type deltaSide struct {
	jobs    []parallel.Job
	anchors int
	repeats atomic.Uint64
}

// newDeltaSide builds one job per plan over the view st, each run from
// every anchor of the given edges (canonical, sorted, all present in st);
// a side without edges has no jobs.
//
// Exactly-once: a symmetry-broken embedding φ whose image contains the
// changed edge {x, y}, x < y, maps exactly one pattern edge onto it, in
// exactly one orientation — so it is reached from exactly one plan
// (a, b) with φ(a) = x, φ(b) = y, once per changed edge in its image.
// The visitor keeps it only when the anchor is the smallest changed edge
// of the image, which every such φ satisfies for exactly one anchor.
// Rather than count the kept ones under a lock, the engines count every
// embedding reached and the visitor counts the rejected repeats, which
// are the rarer event.
func newDeltaSide(st *snapshotState, edges []delta.Edge, plans []*plan.Plan, pedges [][2]pattern.Vertex, filter func(u int, v VertexID) bool) *deltaSide {
	s := &deltaSide{}
	if len(edges) == 0 {
		return s
	}
	// keys orders the changed edges; anchors groups them by smaller
	// endpoint, each group's larger endpoints one ascending subslice of
	// partners. Every plan runs from every anchor.
	keys := make([]uint64, len(edges))
	partners := make([]graph.VertexID, len(edges))
	for i, e := range edges {
		keys[i] = edgeKey(e.U, e.V)
		partners[i] = e.V
	}
	var anchors []engine.Anchor
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && edges[hi].U == edges[lo].U {
			hi++
		}
		anchors = append(anchors, engine.Anchor{Root: edges[lo].U, Partners: partners[lo:hi]})
		lo = hi
	}

	for _, pl := range plans {
		a, b := pl.Pi[0], pl.Pi[1]
		var others [][2]pattern.Vertex
		for _, e := range pedges {
			if !(e[0] == a && e[1] == b) && !(e[0] == b && e[1] == a) {
				others = append(others, e)
			}
		}
		s.jobs = append(s.jobs, parallel.Job{View: st.view, Plan: pl, Anchors: anchors, Visit: func(m []graph.VertexID) bool {
			anchor := edgeKey(m[a], m[b])
			for _, e := range others {
				x, y := m[e[0]], m[e[1]]
				if x > y {
					x, y = y, x
				}
				if k := edgeKey(x, y); k < anchor {
					if _, changed := slices.BinarySearch(keys, k); changed {
						s.repeats.Add(1)
						break
					}
				}
			}
			return true
		}})
		for _, an := range anchors {
			if filter == nil || filter(a, an.Root) {
				s.anchors += len(an.Partners)
			}
		}
	}
	return s
}

// matches is how many matches the side's jobs keep: every embedding the
// engines reached (jobs holds their results), less the repeats.
func (s *deltaSide) matches(jobs []engine.Result) uint64 {
	var n uint64
	for _, r := range jobs {
		n += r.Matches
	}
	return n - s.repeats.Load()
}

// edgeKey packs a canonical edge (u < v) so that key order is the
// (U, V) order delta.Diff sorts its edge lists in.
func edgeKey(u, v graph.VertexID) uint64 { return uint64(u)<<32 | uint64(v) }
