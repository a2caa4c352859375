// Package approx estimates subgraph counts by random path sampling — the
// approximation branch of the literature the paper's related work
// surveys ([15] and the triangle-sampling line [18]). Exact enumeration
// visits every match; sampling instead draws random root-to-leaf probes
// down the same search tree the exact engine explores and reweights them
// Horvitz–Thompson style, trading exactness for time independent of the
// match count.
//
// A probe follows the SE order: pick a uniform random root, then at each
// step compute the candidate set (with the same backward-neighbor
// intersection the engine uses), restrict it to candidates respecting
// injectivity and the symmetry-breaking partial order, and descend into
// one uniform choice. A completed probe contributes the product of its
// choice-set sizes; a dead end contributes zero. The estimator is
// unbiased: a match reached through its unique root-to-leaf path has
// inverse probability equal to exactly that product.
package approx

import (
	"fmt"
	"math/rand"

	"light/internal/estimate"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// Result reports an estimation run.
type Result struct {
	// Estimate is the estimated number of matches.
	Estimate float64
	// Samples is the number of probes drawn.
	Samples int
	// Hits is how many probes reached a full match (a coverage
	// indicator: estimates with very few hits have high variance).
	Hits int
}

// Count estimates the number of subgraphs of g isomorphic to p from the
// given number of random probes, planning the probe order with g's
// statistics. Deterministic for a seed. samples must be at least 1.
func Count(g *graph.Graph, stats estimate.GraphStats, p *pattern.Pattern, samples int, seed int64) (Result, error) {
	if samples < 1 {
		return Result{}, fmt.Errorf("approx: %d samples, need at least 1", samples)
	}
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Choose(p, po, stats, plan.ModeSE)
	if err != nil {
		return Result{}, err
	}
	return CountWithPlan(g, pl, samples, seed), nil
}

// CountWithPlan is Count with a caller-supplied plan (any mode; only the
// order π and partial order are used — probes always materialize
// step-by-step). A graph without vertices estimates 0 with 0 hits.
func CountWithPlan(g *graph.Graph, pl *plan.Plan, samples int, seed int64) Result {
	if g.NumVertices() == 0 {
		return Result{Samples: samples}
	}
	rng := rand.New(rand.NewSource(seed))
	s := newSampler(g, pl)
	var total float64
	hits := 0
	for i := 0; i < samples; i++ {
		w := s.probe(rng)
		if w > 0 {
			hits++
			total += w
		}
	}
	return Result{Estimate: total / float64(samples), Samples: samples, Hits: hits}
}

type sampler struct {
	g  *graph.Graph
	pl *plan.Plan

	assigned []graph.VertexID
	buf      []graph.VertexID
	scratch  []graph.VertexID
	eligible []graph.VertexID
	sets     [][]graph.VertexID
}

func newSampler(g *graph.Graph, pl *plan.Plan) *sampler {
	dmax := g.MaxDegree()
	return &sampler{
		g:        g,
		pl:       pl,
		assigned: make([]graph.VertexID, pl.Pattern.NumVertices()),
		buf:      make([]graph.VertexID, dmax),
		scratch:  make([]graph.VertexID, dmax),
		eligible: make([]graph.VertexID, 0, dmax),
		sets:     make([][]graph.VertexID, 0, pl.Pattern.NumVertices()),
	}
}

// probe draws one weighted sample. Returns 0 on a dead end.
func (s *sampler) probe(rng *rand.Rand) float64 {
	pi := s.pl.Pi
	n := len(pi)
	weight := float64(s.g.NumVertices())
	s.assigned[pi[0]] = graph.VertexID(rng.Intn(s.g.NumVertices()))

	for pos := 1; pos < n; pos++ {
		u := pi[pos]
		// Candidate set: intersect the backward neighbors' adjacency
		// lists (SE semantics — all of N+(u), K1-style).
		s.sets = s.sets[:0]
		for _, w := range pi[:pos] {
			if s.pl.Pattern.HasEdge(u, w) {
				s.sets = append(s.sets, s.g.Neighbors(s.assigned[w]))
			}
		}
		cnt := intersect.MultiWay(s.buf, s.scratch, s.sets, nil, intersect.KindHybrid, intersect.DefaultDelta, nil)
		// Restrict to eligible candidates: injective and respecting the
		// partial order against already-assigned vertices.
		s.eligible = s.eligible[:0]
		for _, v := range s.buf[:cnt] {
			if s.ok(u, v, pi[:pos]) {
				s.eligible = append(s.eligible, v)
			}
		}
		if len(s.eligible) == 0 {
			return 0
		}
		weight *= float64(len(s.eligible))
		s.assigned[u] = s.eligible[rng.Intn(len(s.eligible))]
	}
	return weight
}

// ok checks injectivity and the symmetry-breaking constraints of u
// against the assigned prefix.
func (s *sampler) ok(u pattern.Vertex, v graph.VertexID, prefix []pattern.Vertex) bool {
	for _, w := range prefix {
		av := s.assigned[w]
		if av == v {
			return false
		}
		if s.pl.PO.Less[w]&(1<<uint(u)) != 0 && av >= v {
			return false
		}
		if s.pl.PO.Less[u]&(1<<uint(w)) != 0 && v >= av {
			return false
		}
	}
	return true
}
