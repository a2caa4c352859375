package baselines

import (
	"sync/atomic"
	"time"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// CFL simulates the CFL labeled-matching algorithm on unlabeled graphs:
//
//   - Preprocessing builds the only index unlabeled graphs admit — the
//     degree filter d(v) ≥ d_P(u) (the paper: "the filtering methods
//     designed for labeled subgraph enumeration are often ineffective on
//     unlabeled graphs").
//   - The enumeration order is CFL's BFS-from-the-densest-vertex order
//     (core first, descending degree), which is connected but ignores the
//     cost model — on some patterns (P4 in the paper) it is much worse
//     than SE's optimized order.
//   - Set intersections always "loop the smaller set and binary-search
//     the larger" (our Galloping kernel), which wins only under heavy
//     cardinality skew.
//
// Counting semantics are identical to the engine's (symmetry-broken
// embeddings), so tests can compare counts directly.
func CFL(g *graph.Graph, p *pattern.Pattern, opts Options) (Result, error) {
	po := pattern.SymmetryBreaking(p)
	pi := cflOrder(p, po)
	pl, err := plan.Compile(p, po, pi, plan.ModeSE)
	if err != nil {
		return Result{}, err
	}
	e := engine.New(g, pl, engine.Options{
		Kernel:       intersect.KindGalloping,
		DegreeFilter: true,
	})
	if opts.TimeLimit > 0 {
		// The time limit is the only thing that sets Stop, so a stopped
		// run is an OOT.
		var stop atomic.Bool
		e.Stop = &stop
		defer time.AfterFunc(opts.TimeLimit, func() { stop.Store(true) }).Stop()
	}
	res, err := e.Run(nil)
	out := Result{
		Matches:       res.Matches,
		Intersections: res.Stats.Intersections,
		Order:         orderString(pi),
	}
	if err == nil && res.Stopped {
		return out, ErrTimeLimit
	}
	return out, err
}

// cflOrder is a BFS from the highest-degree vertex, expanding to the
// placed-adjacent vertex with (most backward neighbors, highest degree)
// — a connected order chosen structurally rather than by cost, subject
// to the symmetry-breaking position constraints. If the partial order
// makes the structural choice infeasible, the remaining admissible
// vertex with the same priority rule is taken.
func cflOrder(p *pattern.Pattern, po *pattern.PartialOrder) []pattern.Vertex {
	n := p.NumVertices()
	var order []pattern.Vertex
	var placed uint32
	admissible := func(u pattern.Vertex) bool {
		if placed&(1<<uint(u)) != 0 {
			return false
		}
		// All vertices constrained before u must be placed.
		for w := 0; w < n; w++ {
			if po.Less[w]&(1<<uint(u)) != 0 && placed&(1<<uint(w)) == 0 {
				return false
			}
		}
		// After the first vertex, u must touch the placed set.
		return len(order) == 0 || p.NeighborMask(u)&placed != 0
	}
	for len(order) < n {
		best := -1
		bestKey := [2]int{-1, -1}
		for u := 0; u < n; u++ {
			if !admissible(u) {
				continue
			}
			back := popcount(p.NeighborMask(u) & placed)
			key := [2]int{back, p.Degree(u)}
			if best == -1 || key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
				best, bestKey = u, key
			}
		}
		order = append(order, best)
		placed |= 1 << uint(best)
	}
	return order
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Note on DUALSIM: the paper's single-machine comparison point is proxied
// by parallel SE (parallel.Run with plan.ModeSE) — its in-memory
// enumeration is the same DFS family as SE (Section II-B). The proxy
// lives in cmd/benchpaper; see DESIGN.md §3.
