// Package baselines implements single-machine comparison systems from
// the paper's Section VIII-B1: an EmptyHeaded-like relational WCOJ
// engine (EH) and a CFL-like labeled-matching engine (CFL). Both are
// simulations of systems whose code is unavailable offline; see
// DESIGN.md §3 for the substitution argument. They reproduce the failure
// modes the paper reports — EH's non-connected orders and
// component-materialization OOM, CFL's ineffective unlabeled filtering —
// while producing exact counts (validated against LIGHT in tests).
package baselines

import (
	"errors"
	"sort"
	"time"

	"light/internal/bfsjoin"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
)

// ErrOutOfSpace mirrors bfsjoin.ErrOutOfSpace for EH's materialized
// component joins.
var ErrOutOfSpace = bfsjoin.ErrOutOfSpace

// ErrTimeLimit is returned when a baseline exceeds its time budget.
var ErrTimeLimit = errors.New("baselines: time limit exceeded")

// Options configure a baseline run.
type Options struct {
	// MaxBytes caps EH's materialized component relations (0 = unlimited).
	MaxBytes int64
	// TimeLimit aborts the run (0 = unlimited).
	TimeLimit time.Duration
}

// Result reports a baseline run.
type Result struct {
	Matches       uint64
	Intersections uint64 // set intersections performed (Fig 5)
	PeakBytes     int64  // EH: peak materialized component bytes
	Order         string // human-readable description of the chosen order(s)
}

// EH simulates EmptyHeaded: patterns with at most four vertices run as a
// single generic worst-case-optimal join using EH's attribute order
// (ascending degree — possibly non-connected, as the paper observes for
// P2); larger patterns split into two vertex-induced components whose
// results are materialized and hash-joined, reproducing EH's memory
// blow-up on P4 and P6.
func EH(g *graph.Graph, p *pattern.Pattern, opts Options) (Result, error) {
	t := bfsjoin.NewTracker(bfsjoin.Options{MaxBytes: opts.MaxBytes, TimeLimit: opts.TimeLimit})
	aut := uint64(len(p.Automorphisms()))
	res := Result{}

	if p.NumVertices() <= 4 {
		order := ehOrder(p, allMask(p))
		res.Order = orderString(order)
		e := newGeneric(g, p, allMask(p), order, opts.TimeLimit)
		count, err := e.count()
		res.Intersections = e.stats.Intersections
		if err != nil {
			return res, err
		}
		res.Matches = count / aut
		return res, nil
	}

	// Two-component decomposition: peel a minimum-degree vertex v;
	// component A = P[V∖{v}], component B = P[{v} ∪ N(v)].
	v := minDegreeVertex(p)
	maskA := allMask(p) &^ (1 << uint(v))
	maskB := uint32(1<<uint(v)) | p.NeighborMask(v)
	res.Order = "split on u" + itoa(v)

	relA, ints1, err := materializeComponent(g, p, maskA, t, opts)
	res.Intersections += ints1
	if err != nil {
		return res, err
	}
	relB, ints2, err := materializeComponent(g, p, maskB, t, opts)
	res.Intersections += ints2
	if err != nil {
		return res, err
	}
	count, err := bfsjoin.CountJoin(relA, relB, t)
	res.PeakBytes = t.Peak()
	if err == bfsjoin.ErrTimeLimit {
		return res, ErrTimeLimit
	}
	if err != nil {
		return res, err
	}
	res.Matches = count / aut
	return res, nil
}

// materializeComponent enumerates the vertex-induced subgraph P[mask]
// with EH's order and materializes the result tuples.
func materializeComponent(g *graph.Graph, p *pattern.Pattern, mask uint32, t *bfsjoin.Tracker, opts Options) (*bfsjoin.Relation, uint64, error) {
	order := ehOrder(p, mask)
	e := newGeneric(g, p, mask, order, opts.TimeLimit)
	rel := &bfsjoin.Relation{Vertices: order}
	rowBytes := int64(len(order)) * 4
	err := e.enumerate(func(m []graph.VertexID) bool {
		tup := make([]graph.VertexID, len(order))
		for i, u := range order {
			tup[i] = m[u]
		}
		rel.Tuples = append(rel.Tuples, tup)
		return !t.OverBudget(int64(len(rel.Tuples)) * rowBytes)
	})
	if err != nil {
		return nil, e.stats.Intersections, err
	}
	if t.OverBudget(rel.Bytes()) {
		return nil, e.stats.Intersections, ErrOutOfSpace
	}
	if err := t.Charge(rel); err != nil {
		return nil, e.stats.Intersections, err
	}
	return rel, e.stats.Intersections, nil
}

// ehOrder returns EH's attribute order for the vertices in mask:
// ascending degree within the full pattern, ties by id. Connectivity is
// not considered — exactly the property that hurts EH on P2 in the paper
// (π³(P2) = (u1, u3, u0, u2)).
func ehOrder(p *pattern.Pattern, mask uint32) []pattern.Vertex {
	var vs []pattern.Vertex
	for u := 0; u < p.NumVertices(); u++ {
		if mask&(1<<uint(u)) != 0 {
			vs = append(vs, u)
		}
	}
	sort.SliceStable(vs, func(i, j int) bool {
		di, dj := p.Degree(vs[i]), p.Degree(vs[j])
		if di != dj {
			return di < dj
		}
		return vs[i] < vs[j]
	})
	return vs
}

func minDegreeVertex(p *pattern.Pattern) pattern.Vertex {
	best, bestDeg := 0, p.NumVertices()+1
	for u := 0; u < p.NumVertices(); u++ {
		if d := p.Degree(u); d < bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

func allMask(p *pattern.Pattern) uint32 {
	return uint32(1<<uint(p.NumVertices())) - 1
}

func orderString(order []pattern.Vertex) string {
	s := "("
	for i, u := range order {
		if i > 0 {
			s += ","
		}
		s += "u" + itoa(u)
	}
	return s + ")"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// generic is a compact WCOJ enumerator that, unlike the main engine,
// accepts non-connected orders: a vertex with no backward neighbors
// scans all of V(G).
type generic struct {
	g        *graph.Graph
	p        *pattern.Pattern
	order    []pattern.Vertex
	backward [][]pattern.Vertex // backward neighbors per position
	assigned []graph.VertexID
	bufs     [][]graph.VertexID
	scratch  []graph.VertexID
	stats    intersect.Stats
	deadline time.Time
	nodes    uint64
	visit    func([]graph.VertexID) bool
	err      error
}

func newGeneric(g *graph.Graph, p *pattern.Pattern, mask uint32, order []pattern.Vertex, limit time.Duration) *generic {
	e := &generic{
		g:        g,
		p:        p,
		order:    order,
		assigned: make([]graph.VertexID, p.NumVertices()),
		scratch:  make([]graph.VertexID, g.MaxDegree()),
	}
	if limit > 0 {
		e.deadline = time.Now().Add(limit)
	}
	e.backward = make([][]pattern.Vertex, len(order))
	e.bufs = make([][]graph.VertexID, len(order))
	var placed uint32
	for i, u := range order {
		for _, w := range p.Neighbors(u) {
			if placed&(1<<uint(w)) != 0 {
				e.backward[i] = append(e.backward[i], w)
			}
		}
		placed |= 1 << uint(u)
		e.bufs[i] = make([]graph.VertexID, g.MaxDegree())
	}
	return e
}

func (e *generic) count() (uint64, error) {
	var n uint64
	err := e.enumerate(func([]graph.VertexID) bool { n++; return true })
	return n, err
}

// enumerate walks the order; visit receives the mapping indexed by
// pattern vertex. Returning false stops (not an error).
func (e *generic) enumerate(visit func([]graph.VertexID) bool) error {
	e.visit = visit
	e.err = nil
	e.rec(0)
	return e.err
}

func (e *generic) rec(i int) bool {
	if i == len(e.order) {
		return e.visit(e.assigned)
	}
	u := e.order[i]
	back := e.backward[i]
	var cands []graph.VertexID
	switch len(back) {
	case 0:
		// Non-connected step: every data vertex is a candidate. This is
		// the search-space explosion the paper charges EH with.
		for v := 0; v < e.g.NumVertices(); v++ {
			if !e.tryExtend(i, u, graph.VertexID(v)) {
				return false
			}
		}
		return true
	case 1:
		cands = e.g.Neighbors(e.assigned[back[0]])
	default:
		sets := make([][]graph.VertexID, len(back))
		for k, w := range back {
			sets[k] = e.g.Neighbors(e.assigned[w])
		}
		n := intersect.MultiWay(e.bufs[i], e.scratch, sets, nil, intersect.KindMerge, intersect.DefaultDelta, &e.stats)
		cands = e.bufs[i][:n]
	}
	for _, v := range cands {
		if !e.tryExtend(i, u, v) {
			return false
		}
	}
	return true
}

func (e *generic) tryExtend(i int, u pattern.Vertex, v graph.VertexID) bool {
	// Injectivity.
	for k := 0; k < i; k++ {
		if e.assigned[e.order[k]] == v {
			return true // skip candidate, keep going
		}
	}
	e.nodes++
	if e.nodes&8191 == 0 && !e.deadline.IsZero() && time.Now().After(e.deadline) {
		e.err = ErrTimeLimit
		return false
	}
	e.assigned[u] = v
	return e.rec(i + 1)
}
