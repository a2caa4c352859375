package bfsjoin

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// unit is one join unit: a connected subpattern given by parent-pattern
// vertices and a subset of parent edges.
type unit struct {
	vertices []pattern.Vertex
	edges    [][2]pattern.Vertex
	kind     string // "clique", "star", "core" — for reporting
}

func (u unit) String() string {
	return fmt.Sprintf("%s%v(%d edges)", u.kind, u.vertices, len(u.edges))
}

// decomposeCliqueStar splits p into SEED's clique-star join units:
// greedily peel maximal cliques (size ≥ 3) that cover uncovered edges,
// then group leftover edges into stars around the busiest endpoints.
func decomposeCliqueStar(p *pattern.Pattern) []unit {
	n := p.NumVertices()
	uncovered := map[[2]pattern.Vertex]bool{}
	for _, e := range p.Edges() {
		uncovered[e] = true
	}
	var units []unit
	// Clique phase.
	for len(uncovered) > 0 {
		bestMask, bestGain := uint32(0), 0
		for mask := uint32(1); mask < 1<<uint(n); mask++ {
			if bits.OnesCount32(mask) < 3 || !isClique(p, mask) {
				continue
			}
			gain := 0
			for e := range uncovered {
				if mask&(1<<uint(e[0])) != 0 && mask&(1<<uint(e[1])) != 0 {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && bits.OnesCount32(mask) > bits.OnesCount32(bestMask)) {
				bestMask, bestGain = mask, gain
			}
		}
		if bestGain == 0 {
			break
		}
		u := unit{kind: "clique"}
		for m := bestMask; m != 0; m &= m - 1 {
			u.vertices = append(u.vertices, bits.TrailingZeros32(m))
		}
		for i := 0; i < len(u.vertices); i++ {
			for j := i + 1; j < len(u.vertices); j++ {
				e := [2]pattern.Vertex{u.vertices[i], u.vertices[j]}
				u.edges = append(u.edges, e)
				delete(uncovered, e)
			}
		}
		units = append(units, u)
	}
	// Star phase.
	for len(uncovered) > 0 {
		counts := make([]int, n)
		for e := range uncovered {
			counts[e[0]]++
			counts[e[1]]++
		}
		center, best := 0, 0
		for v, c := range counts {
			if c > best {
				center, best = v, c
			}
		}
		u := unit{kind: "star", vertices: []pattern.Vertex{center}}
		var edges [][2]pattern.Vertex
		for e := range uncovered {
			if e[0] == center || e[1] == center {
				edges = append(edges, e)
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		for _, e := range edges {
			other := e[0]
			if other == center {
				other = e[1]
			}
			u.vertices = append(u.vertices, other)
			u.edges = append(u.edges, e)
			delete(uncovered, e)
		}
		units = append(units, u)
	}
	return units
}

func isClique(p *pattern.Pattern, mask uint32) bool {
	vs := []pattern.Vertex{}
	for m := mask; m != 0; m &= m - 1 {
		vs = append(vs, bits.TrailingZeros32(m))
	}
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !p.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// minConnectedVertexCover returns the smallest vertex set covering every
// edge of p whose induced subgraph is connected (CRYSTAL's core), by
// brute force over subsets in increasing size.
func minConnectedVertexCover(p *pattern.Pattern) []pattern.Vertex {
	n := p.NumVertices()
	edges := p.Edges()
	for size := 1; size <= n; size++ {
		for mask := uint32(1); mask < 1<<uint(n); mask++ {
			if bits.OnesCount32(mask) != size {
				continue
			}
			covers := true
			for _, e := range edges {
				if mask&(1<<uint(e[0])) == 0 && mask&(1<<uint(e[1])) == 0 {
					covers = false
					break
				}
			}
			if !covers || !p.InducedConnected(mask) {
				continue
			}
			var out []pattern.Vertex
			for m := mask; m != 0; m &= m - 1 {
				out = append(out, bits.TrailingZeros32(m))
			}
			return out
		}
	}
	return nil // unreachable for a non-empty pattern: V(P) always works
}

// unitPattern relabels a unit into a standalone pattern plus a connected
// enumeration order for it.
func unitPattern(u unit) (*pattern.Pattern, []pattern.Vertex, error) {
	remap := map[pattern.Vertex]int{}
	for i, v := range u.vertices {
		remap[v] = i
	}
	var edges [][2]pattern.Vertex
	for _, e := range u.edges {
		edges = append(edges, [2]pattern.Vertex{remap[e[0]], remap[e[1]]})
	}
	sub, err := pattern.New(fmt.Sprintf("unit-%s", u.kind), len(u.vertices), edges)
	if err != nil {
		return nil, nil, err
	}
	if sub.NumVertices() == 1 {
		return sub, []pattern.Vertex{0}, nil
	}
	orders := plan.ConnectedOrders(sub, nil)
	if len(orders) == 0 {
		return nil, nil, fmt.Errorf("bfsjoin: unit %v is disconnected", u)
	}
	return sub, orders[0], nil
}

// materialize enumerates all injective homomorphisms of the unit's edge
// set and returns them as a charged Relation. No symmetry breaking (the
// caller divides the final count by |Aut(P)|).
func materialize(g *graph.Graph, u unit, t *Tracker) (*Relation, error) {
	sub, pi, err := unitPattern(u)
	if err != nil {
		return nil, err
	}
	pl, err := plan.Compile(sub, &pattern.PartialOrder{}, pi, plan.ModeLIGHT)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Vertices: append([]pattern.Vertex(nil), u.vertices...)}
	rowBytes := int64(len(u.vertices)) * 4
	overBudget := false
	res, err := t.run(engine.New(g, pl, engine.Options{}), func(m []graph.VertexID) bool {
		tup := make([]graph.VertexID, len(u.vertices))
		for i := range u.vertices {
			tup[i] = m[i]
		}
		rel.Tuples = append(rel.Tuples, tup)
		if t.opts.MaxBytes > 0 && t.live+int64(len(rel.Tuples))*rowBytes > t.opts.MaxBytes {
			overBudget = true
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if overBudget {
		return nil, ErrOutOfSpace
	}
	_ = res
	if err := t.Charge(rel); err != nil {
		return nil, err
	}
	return rel, nil
}

// run runs e under the tracker's deadline: a timer sets e's Stop flag
// when it passes, and a run the flag stopped returns ErrTimeLimit.
func (t *Tracker) run(e *engine.Enumerator, visit engine.VisitFunc) (engine.Result, error) {
	if t.deadline.IsZero() {
		return e.Run(visit)
	}
	if err := t.CheckTime(); err != nil {
		return engine.Result{}, err
	}
	var stop atomic.Bool
	e.Stop = &stop
	defer time.AfterFunc(time.Until(t.deadline), func() { stop.Store(true) }).Stop()
	res, err := e.Run(visit)
	if err == nil && res.Stopped && stop.Load() {
		err = ErrTimeLimit
	}
	return res, err
}
