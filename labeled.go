package light

import (
	"context"
	"errors"
	"fmt"

	"light/internal/engine"
	"light/internal/labeled"
)

// Label is a vertex label for labeled subgraph matching.
type Label = uint16

// LabeledGraph is a data graph whose vertices carry labels, with the
// candidate-filtering index (neighborhood label frequencies) built at
// construction.
type LabeledGraph struct {
	st *snapshotState // the snapshot WithLabels saw
	lg *labeled.Graph
}

// WithLabels attaches labels to a graph: labels[v] is the label of
// vertex v in g's (degree-ordered) numbering. The labeled view binds to
// the graph's current CSR, so pending edge deltas must be compacted
// first (later ApplyEdges calls on g do not change the labeled view).
func WithLabels(g *Graph, labels []Label) (*LabeledGraph, error) {
	st := g.snap()
	if st.view.Overlay() != nil {
		return nil, fmt.Errorf("%w: WithLabels with pending edge deltas; call Compact first", ErrUnsupportedOption)
	}
	lg, err := labeled.NewGraph(st.view.Base(), labels)
	if err != nil {
		return nil, err
	}
	return &LabeledGraph{st: st, lg: lg}, nil
}

// Label returns the label of data vertex v.
func (g *LabeledGraph) Label(v VertexID) Label { return g.lg.Labels[v] }

// LabeledPattern is a pattern whose vertices carry labels.
type LabeledPattern struct {
	lp *labeled.Pattern
}

// WithPatternLabels attaches labels to a pattern's vertices.
func WithPatternLabels(p *Pattern, labels []Label) (*LabeledPattern, error) {
	lp, err := labeled.NewPattern(p.p, labels)
	if err != nil {
		return nil, err
	}
	return &LabeledPattern{lp: lp}, nil
}

// CountLabeled returns the number of label-preserving matches: subgraphs
// of g isomorphic to p where every matched vertex carries the pattern
// vertex's label. Deduplication uses the label-preserving automorphisms
// only, so differently-labeled placements of a symmetric pattern are
// counted separately, as they should be. It runs like Count — same
// pool, governance and RunReport — with Options.Filter applied on top
// of the label filter. Snapshot, CheckpointPath and ResumeFrom are
// rejected with ErrUnsupportedOption: the labeled view is bound to the
// snapshot WithLabels saw, and a checkpoint binds graph and plan, not
// labels.
func CountLabeled(g *LabeledGraph, p *LabeledPattern, opts Options) (Result, error) {
	return runLabeled(g, p, opts, nil)
}

// EnumerateLabeled streams every label-preserving match to visit (same
// contract as Enumerate).
func EnumerateLabeled(g *LabeledGraph, p *LabeledPattern, opts Options, visit func(mapping []VertexID) bool) (Result, error) {
	if visit == nil {
		return Result{}, errors.New("light: EnumerateLabeled requires a visitor; use CountLabeled")
	}
	return runLabeled(g, p, opts, visit)
}

func runLabeled(g *LabeledGraph, p *LabeledPattern, opts Options, visit engine.VisitFunc) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	switch {
	case opts.Snapshot != nil:
		return Result{}, fmt.Errorf("%w: labeled queries do not take Options.Snapshot (the labeled view is bound to the snapshot WithLabels saw)", ErrUnsupportedOption)
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return Result{}, fmt.Errorf("%w: labeled queries do not support checkpoint/resume (a checkpoint binds graph and plan, not labels)", ErrUnsupportedOption)
	}
	pl, err := compilePlan(g.st, p.lp.P, p.lp.SymmetryBreaking(), opts)
	if err != nil {
		return Result{}, err
	}
	// The label filter also prunes the root: only π[0]'s label class is
	// ever expanded.
	filter := labeled.Filter(g.lg, p.lp)
	if user := opts.Filter; user != nil {
		byLabel := filter
		filter = func(u int, v VertexID) bool { return byLabel(u, v) && user(u, v) }
	}
	return execute(context.Background(), g.st, pl, opts, filter, visit)
}

// ApproxCount estimates the match count from random path-sampling
// probes instead of exhaustive enumeration — useful when the exact
// count is astronomically large and a ±few-percent answer suffices.
// The estimate is unbiased; variance shrinks with the number of
// samples. Hits reports how many probes completed (very small values
// mean the estimate is unreliable). Deterministic for a given seed.
// samples must be at least 1; a graph without vertices estimates 0.
func ApproxCount(g *Graph, p *Pattern, samples int, seed int64) (estimateValue float64, hits int, err error) {
	res, err := approxCount(g, p, samples, seed)
	if err != nil {
		return 0, 0, err
	}
	return res.Estimate, res.Hits, nil
}
