package bfsjoin

import (
	"sort"
	"time"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// SEED simulates the SEED distributed algorithm: decompose P into
// clique-star join units, materialize each unit's matches, and hash-join
// them round by round, charging intermediate space and shuffle cost.
// Like the real systems under the paper's protocol, the final join round
// streams its output (matches are counted, not stored); everything before
// it is materialized, which is where the BFS approach's space cost lives.
func SEED(g *graph.Graph, p *pattern.Pattern, opts Options) (Result, error) {
	t := NewTracker(opts)
	units := decomposeCliqueStar(p)
	res := Result{}
	for _, u := range units {
		res.Units = append(res.Units, u.String())
	}
	aut := uint64(len(p.Automorphisms()))

	if len(units) == 1 {
		// Single join unit (e.g. a clique pattern): SEED streams the
		// unit's matches directly with no intermediates.
		count, err := countUnit(g, units[0], t)
		if err != nil {
			return finishResult(res, t), err
		}
		res.Matches = count / aut
		return finishResult(res, t), nil
	}

	rels := make([]*Relation, 0, len(units))
	for _, u := range units {
		r, err := materialize(g, u, t)
		if err != nil {
			return finishResult(res, t), err
		}
		rels = append(rels, r)
	}
	// Join smallest-first among units sharing a vertex with the
	// accumulated relation (SEED optimizes its join order; smallest-first
	// is the standard greedy).
	sort.SliceStable(rels, func(i, j int) bool { return len(rels[i].Tuples) < len(rels[j].Tuples) })
	acc := rels[0]
	remaining := rels[1:]
	for len(remaining) > 0 {
		pick := -1
		for i, r := range remaining {
			if shared, _, _ := sharedVertices(acc, r); len(shared) > 0 {
				pick = i
				break
			}
		}
		if pick == -1 {
			// No unit shares a vertex yet (transient for connected P):
			// take the smallest and pay the Cartesian product.
			pick = 0
		}
		next := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		if len(remaining) == 0 {
			count, err := CountJoin(acc, next, t)
			if err != nil {
				return finishResult(res, t), err
			}
			res.Matches = count / aut
			break
		}
		joined, err := HashJoin(acc, next, t)
		if err != nil {
			return finishResult(res, t), err
		}
		t.Release(acc)
		t.Release(next)
		acc = joined
		if err := t.CheckTime(); err != nil {
			return finishResult(res, t), err
		}
	}
	out := finishResult(res, t)
	if opts.Sleep && out.ShuffleTime > 0 {
		time.Sleep(out.ShuffleTime)
	}
	return out, nil
}

// countUnit counts the unit's injective homomorphisms without storing
// them.
func countUnit(g *graph.Graph, u unit, t *Tracker) (uint64, error) {
	sub, pi, err := unitPattern(u)
	if err != nil {
		return 0, err
	}
	pl, err := plan.Compile(sub, &pattern.PartialOrder{}, pi, plan.ModeLIGHT)
	if err != nil {
		return 0, err
	}
	r, err := t.run(engine.New(g, pl, engine.Options{}), nil)
	if err != nil {
		return 0, err
	}
	return r.Matches, nil
}

func finishResult(res Result, t *Tracker) Result {
	res.PeakBytes = t.peak
	res.ShuffledTuples = t.shuffled
	res.ShuffleTime = t.ShuffleTime()
	return res
}
