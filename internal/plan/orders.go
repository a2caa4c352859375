package plan

import (
	"context"
	"fmt"

	"light/internal/estimate"
	"light/internal/pattern"
)

// ConnectedOrders enumerates every connected enumeration order of V(P),
// pruned by the symmetry-breaking partial order as in Section VI: if
// u < u′ is a constraint, u must precede u′ in π. po may be nil.
func ConnectedOrders(p *pattern.Pattern, po *pattern.PartialOrder) [][]pattern.Vertex {
	return connectedOrdersFrom(p, po, nil)
}

// connectedOrdersFrom is ConnectedOrders restricted to the orders that
// start with prefix, which is taken as given (connected, and exempt from
// the partial-order pruning).
func connectedOrdersFrom(p *pattern.Pattern, po *pattern.PartialOrder, prefix []pattern.Vertex) [][]pattern.Vertex {
	n := p.NumVertices()
	if po == nil {
		po = &pattern.PartialOrder{}
	}
	// greaterMask[u] = vertices that must come after u.
	var mustFollow [pattern.MaxVertices]uint32
	for u := 0; u < n; u++ {
		mustFollow[u] = po.Less[u]
	}
	var out [][]pattern.Vertex
	order := make([]pattern.Vertex, 0, n)
	var placed uint32
	for _, u := range prefix {
		order = append(order, u)
		placed |= 1 << uint(u)
	}
	var rec func()
	rec = func() {
		if len(order) == n {
			cp := make([]pattern.Vertex, n)
			copy(cp, order)
			out = append(out, cp)
			return
		}
		for u := 0; u < n; u++ {
			bit := uint32(1 << uint(u))
			if placed&bit != 0 {
				continue
			}
			// Connectivity: after the first vertex, u needs a placed neighbor.
			if len(order) > 0 && p.NeighborMask(u)&placed == 0 {
				continue
			}
			// Partial order: everything constrained to precede u is placed.
			violates := false
			for w := 0; w < n; w++ {
				if mustFollow[w]&bit != 0 && placed&(1<<uint(w)) == 0 {
					violates = true
					break
				}
			}
			if violates {
				continue
			}
			order = append(order, u)
			placed |= bit
			rec()
			order = order[:len(order)-1]
			placed &^= bit
		}
	}
	rec()
	return out
}

// Choose compiles every candidate order and returns the plan with the
// minimum cost (Plan.Cost). Ties are broken toward orders placing
// partial-order-constrained vertices earlier, then lexicographically, so
// Choose is deterministic. The partial order is computed from the
// pattern's automorphisms when po is nil. The chosen plan then marks
// the operands its walk says pay (Plan.Marks); the marks never change
// which order is chosen.
func Choose(p *pattern.Pattern, po *pattern.PartialOrder, stats estimate.GraphStats, mode Mode) (*Plan, error) {
	return ChooseContext(context.Background(), p, po, stats, mode)
}

// ChooseContext is Choose under a context: the search polls ctx before
// it starts and once per candidate order, and returns context.Cause(ctx)
// once ctx is done — a large pattern's orders can cost far more than
// its run.
func ChooseContext(ctx context.Context, p *pattern.Pattern, po *pattern.PartialOrder, stats estimate.GraphStats, mode Mode) (*Plan, error) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if po == nil {
		po = pattern.SymmetryBreaking(p)
	}
	return cheapest(ctx, p, po, ConnectedOrders(p, po), stats, mode, 1)
}

// ChooseAnchored returns the minimum-cost CompileAnchored plan whose
// order starts π = (a, b, …) for the pattern edge (a, b): the cheapest
// connected completion of that edge, under the same cost model and
// tie-breaks as Choose. The completions are not pruned by po's
// precedence (the prefix may already violate it); po still supplies the
// plan's symmetry-breaking constraints. ctx is polled as in
// ChooseContext.
func ChooseAnchored(ctx context.Context, p *pattern.Pattern, po *pattern.PartialOrder, stats estimate.GraphStats, mode Mode, a, b pattern.Vertex) (*Plan, error) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if !p.HasEdge(a, b) {
		return nil, fmt.Errorf("plan: (u%d, u%d) is not an edge of pattern %s", a, b, p.Name())
	}
	if po == nil {
		po = pattern.SymmetryBreaking(p)
	}
	return cheapest(ctx, p, po, connectedOrdersFrom(p, nil, []pattern.Vertex{a, b}), stats, mode, 2)
}

// cheapest compiles every order, materializing the first eager vertices
// of π eagerly (see executionOrder), and returns the plan with the
// minimum cost, ties broken by tieKey then lexicographically, with its
// pushed constraints and its marks. The partial order's per-mask
// fractions are shared by every order's walk. It polls ctx once per
// order.
func cheapest(ctx context.Context, p *pattern.Pattern, po *pattern.PartialOrder, orders [][]pattern.Vertex, stats estimate.GraphStats, mode Mode, eager int) (*Plan, error) {
	if len(orders) == 0 {
		return nil, fmt.Errorf("plan: pattern %s has no connected order (disconnected pattern?)", p.Name())
	}
	frac := orderFractions(po, p.NumVertices())
	var best *Plan
	var bestCost float64
	var bestKey int
	for _, pi := range orders {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		pl, err := compile(p, po, pi, mode, eager)
		if err != nil {
			return nil, err
		}
		cost := pl.walk(stats, frac, nil)
		key := tieKey(pl, po)
		if best == nil || cost < bestCost || (cost == bestCost && lessKey(key, bestKey, pi, best.Pi)) {
			best, bestCost, bestKey = pl, cost, key
		}
	}
	best.push()
	best.mark(stats, frac)
	return best, nil
}

// tieKey returns the secondary ranking for equal-cost orders: the sum of
// the positions of partial-order-constrained vertices, implementing the
// paper's stated preference for placing them early.
func tieKey(pl *Plan, po *pattern.PartialOrder) int {
	constrained := uint32(0)
	for u := range pl.Pi {
		constrained |= po.Less[u]
		if po.Less[u] != 0 {
			constrained |= 1 << uint(u)
		}
	}
	sum := 0
	for pos, u := range pl.Pi {
		if constrained&(1<<uint(u)) != 0 {
			sum += pos
		}
	}
	return sum
}

func lessKey(a, b int, piA, piB []pattern.Vertex) bool {
	if a != b {
		return a < b
	}
	for i := range piA {
		if piA[i] != piB[i] {
			return piA[i] < piB[i]
		}
	}
	return false
}
