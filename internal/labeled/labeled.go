// Package labeled extends the enumeration engine to vertex-labeled
// graphs — the setting the paper's Section II-B positions unlabeled
// enumeration inside ("unlabeled subgraph enumeration can be viewed as a
// special case of labeled subgraph enumeration that all vertices have
// the same label"). It supplies what labels add on top of the core
// engine:
//
//   - label-equality candidate filtering, plus the neighborhood label
//     frequency (NLF) filter the paper cites from the labeled-matching
//     literature [5], [9]: φ(u) must have at least as many ℓ-labeled
//     neighbors as u, for every label ℓ — applied at the root too, so
//     the search starts only from the first pattern vertex's label
//     class;
//   - symmetry breaking restricted to label-preserving automorphisms,
//     so each labeled subgraph is still counted exactly once.
//
// The enumeration itself is the unchanged LIGHT pipeline: the light
// package compiles a plan from the label-preserving partial order and
// runs it, with Filter, on the same worker pool as any other query.
package labeled

import (
	"fmt"
	"sort"

	"light/internal/graph"
	"light/internal/pattern"
)

// Label is a vertex label.
type Label = uint16

// Graph is a vertex-labeled data graph with its filtering index.
type Graph struct {
	G      *graph.Graph
	Labels []Label

	// nlf[v] is v's neighborhood label frequency signature: sorted
	// (label, count) pairs.
	nlf [][]labelCount
}

type labelCount struct {
	label Label
	count uint32
}

// NewGraph attaches labels to a data graph and builds the NLF index.
// labels[v] is the label of vertex v; len(labels) must equal the vertex
// count.
func NewGraph(g *graph.Graph, labels []Label) (*Graph, error) {
	if len(labels) != g.NumVertices() {
		return nil, fmt.Errorf("labeled: %d labels for %d vertices", len(labels), g.NumVertices())
	}
	lg := &Graph{G: g, Labels: labels, nlf: make([][]labelCount, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		lg.nlf[v] = signature(labels, g.Neighbors(graph.VertexID(v)))
	}
	return lg, nil
}

// signature builds the sorted (label, count) histogram of the given
// vertices.
func signature(labels []Label, vs []graph.VertexID) []labelCount {
	counts := map[Label]uint32{}
	for _, w := range vs {
		counts[labels[w]]++
	}
	sig := make([]labelCount, 0, len(counts))
	for l, c := range counts {
		sig = append(sig, labelCount{l, c})
	}
	sort.Slice(sig, func(i, j int) bool { return sig[i].label < sig[j].label })
	return sig
}

// Pattern is a vertex-labeled pattern with its per-vertex requirements.
type Pattern struct {
	P      *pattern.Pattern
	Labels []Label

	// required[u] is u's NLF requirement (its pattern-side signature).
	required [][]labelCount
}

// NewPattern attaches labels to a pattern graph.
func NewPattern(p *pattern.Pattern, labels []Label) (*Pattern, error) {
	if len(labels) != p.NumVertices() {
		return nil, fmt.Errorf("labeled: %d labels for %d pattern vertices", len(labels), p.NumVertices())
	}
	lp := &Pattern{P: p, Labels: labels, required: make([][]labelCount, p.NumVertices())}
	for u := 0; u < p.NumVertices(); u++ {
		ns := p.Neighbors(u)
		vs := make([]graph.VertexID, len(ns))
		for i, w := range ns {
			vs[i] = graph.VertexID(w)
		}
		lp.required[u] = signature(labels, vs)
	}
	return lp, nil
}

// Automorphisms returns the label-preserving automorphisms of the
// pattern — the subgroup of Aut(P) that maps every vertex to an
// equally-labeled one.
func (p *Pattern) Automorphisms() [][]pattern.Vertex {
	var out [][]pattern.Vertex
	for _, a := range p.P.Automorphisms() {
		ok := true
		for u, img := range a {
			if p.Labels[u] != p.Labels[img] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, a)
		}
	}
	return out
}

// SymmetryBreaking computes the partial order from the label-preserving
// automorphism subgroup.
func (p *Pattern) SymmetryBreaking() *pattern.PartialOrder {
	return pattern.SymmetryBreakingFromAut(p.P, p.Automorphisms())
}

// nlfSatisfied reports whether have covers need: for every label in
// need, have must carry at least that count. Both are label-sorted.
func nlfSatisfied(have, need []labelCount) bool {
	i := 0
	for _, req := range need {
		for i < len(have) && have[i].label < req.label {
			i++
		}
		if i == len(have) || have[i].label != req.label || have[i].count < req.count {
			return false
		}
	}
	return true
}

// Filter returns the engine filter implementing the label checks for
// this (graph, pattern) pair: label equality, degree, and NLF.
func Filter(g *Graph, p *Pattern) func(u int, v graph.VertexID) bool {
	return func(u int, v graph.VertexID) bool {
		if g.Labels[v] != p.Labels[u] {
			return false
		}
		if g.G.Degree(v) < p.P.Degree(u) {
			return false
		}
		return nlfSatisfied(g.nlf[v], p.required[u])
	}
}
