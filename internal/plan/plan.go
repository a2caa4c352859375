// Package plan compiles a pattern graph into an executable enumeration
// plan: the enumeration order π (Section VI), the execution order σ of
// COMP/MAT operations (Algorithm 2), and the minimum-set-cover operands
// K1/K2 per pattern vertex (Algorithm 3). The enumeration engines in
// internal/engine interpret the compiled plan.
package plan

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"light/internal/estimate"
	"light/internal/pattern"
	"light/internal/setcover"
)

// OpMode distinguishes the two operations of the execution order σ.
type OpMode uint8

const (
	// Comp computes the candidate set of a pattern vertex.
	Comp OpMode = iota
	// Mat materializes a pattern vertex: extends the partial result by
	// mapping it to each candidate in turn.
	Mat
)

// String returns COMP or MAT.
func (m OpMode) String() string {
	if m == Comp {
		return "COMP"
	}
	return "MAT"
}

// Op is one σ entry: an operation applied to a pattern vertex.
type Op struct {
	Mode   OpMode
	Vertex pattern.Vertex
}

// Operands are the inputs of one candidate-set computation (Equation 6):
// C(u) = ∩_{w ∈ K1} N(φ(w)) ∩ ∩_{w ∈ K2} C(w).
type Operands struct {
	K1 []pattern.Vertex // materialized vertices contributing neighbor lists
	K2 []pattern.Vertex // earlier vertices contributing candidate sets
}

// W returns w_u, the number of set intersections one computation costs
// (Equation 7): |K1| + |K2| − 1, or 0 when there is at most one operand.
func (o Operands) W() int {
	w := len(o.K1) + len(o.K2) - 1
	if w < 0 {
		return 0
	}
	return w
}

// Constraint is a symmetry-breaking check applied when materializing a
// vertex: the new mapping must relate to the mapping of Other as
// indicated. Lower means φ(Other) must be below the new data vertex
// (Other < u), i.e. the new vertex needs ids greater than φ(Other).
type Constraint struct {
	Other pattern.Vertex
	Lower bool // true: require φ(Other) < v; false: require v < φ(Other)
}

// Plan is a compiled enumeration plan for one pattern. Immutable once
// built; safe for concurrent use by many workers.
type Plan struct {
	Pattern *pattern.Pattern
	PO      *pattern.PartialOrder

	Pi    []pattern.Vertex // enumeration order π; Pi[0] is the root vertex
	Sigma []Op             // execution order; Sigma[0] is always (MAT, Pi[0])

	// Ops[u] holds the candidate computation operands for vertex u
	// (unused for Pi[0], whose candidate set is V(G)).
	Ops []Operands

	// MatConstraints[i] lists the symmetry-breaking checks to apply at
	// σ[i] when σ[i] is a MAT: each constraint references a vertex whose
	// MAT precedes σ[i]. The ones pushed into the vertex's COMP are in
	// Push instead.
	MatConstraints [][]Constraint

	// Push[u] holds the constraints of MAT u that COMP u applies
	// instead: the engine cuts every operand of COMP u to their id
	// window. Each is against a vertex materialized before COMP u, and
	// every COMP that reads C(u) as a K2 operand, directly or through
	// another's C, is held to the same bound by the partial order (see
	// push), so the cut loses it no match.
	Push [][]Constraint

	// Distinct[i] is the injectivity mask of the MAT at σ[i]: the
	// vertices materialized before it whose images can lie in its
	// candidates. A pattern neighbour's image cannot (the candidates
	// are its neighbours, and no view holds a self-loop), nor can the
	// image of a vertex σ[i]'s constraints bound strictly.
	Distinct []uint32

	// PosInPi[u] is the position of u in π.
	PosInPi []int

	// Anchors[u] and Free[u] are the anchor/free vertex masks of u
	// (Definition IV.1); meaningful for u ≠ Pi[0].
	Anchors []uint32
	Free    []uint32

	// MatOrder is π′: the vertices in the order their MAT ops appear in σ.
	MatOrder []pattern.Vertex

	// Marks[u] is the set of u's K1 operands w whose neighbour lists
	// the engine keeps as a per-worker bitmap (a mark) while φ(w) stays
	// fixed: COMP u intersects its other operands, then probes the
	// result against each mark. Only Choose, ChooseAnchored and MarkAll
	// flag operands (see markWhere), and only a bitmap kernel runs them:
	// under a list kernel the engine intersects every operand.
	Marks []uint32
}

// Lazy reports whether the plan defers any materialization (i.e. σ is not
// the strictly interleaved COMP/MAT sequence).
func (pl *Plan) Lazy() bool {
	for u, free := range pl.Free {
		if u != pl.Pi[0] && free != 0 {
			return true
		}
	}
	return false
}

// WTotal returns Σ_u w_u over all vertices, a static measure of per-path
// intersection work.
func (pl *Plan) WTotal() int {
	total := 0
	for u := range pl.Ops {
		if u == pl.Pi[0] {
			continue
		}
		total += pl.Ops[u].W()
	}
	return total
}

// String renders π, σ and the operands for debugging and logs.
func (pl *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "π=%v σ=[", pl.Pi)
	for i, op := range pl.Sigma {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%v(u%d)", op.Mode, op.Vertex)
	}
	sb.WriteString("] operands{")
	for u := range pl.Ops {
		if u == pl.Pi[0] {
			continue
		}
		fmt.Fprintf(&sb, " u%d:K1=%v,K2=%v", u, pl.Ops[u].K1, pl.Ops[u].K2)
	}
	sb.WriteString(" }")
	return sb.String()
}

// Mode selects which of the paper's optimizations a plan uses; the four
// combinations of the first two fields are the four algorithms of
// Section VIII-B1.
type Mode struct {
	LazyMaterialization bool // Algorithm 2's deferred σ (LM)
	MinSetCover         bool // Algorithm 3's operands (MSC)
	// GreedyCover swaps Algorithm 3's exact minimum set cover for the
	// ln(n)-approximate greedy solver — an ablation of the paper's
	// choice to pay O(4^n) for exactness.
	GreedyCover bool
}

// Modes for the four evaluated algorithms.
var (
	ModeSE    = Mode{LazyMaterialization: false, MinSetCover: false}
	ModeLM    = Mode{LazyMaterialization: true, MinSetCover: false}
	ModeMSC   = Mode{LazyMaterialization: false, MinSetCover: true}
	ModeLIGHT = Mode{LazyMaterialization: true, MinSetCover: true}
)

// Name returns SE, LM, MSC, or LIGHT (ignoring the cover-solver knob).
func (m Mode) Name() string {
	switch {
	case !m.LazyMaterialization && !m.MinSetCover:
		return "SE"
	case m.LazyMaterialization && !m.MinSetCover:
		return "LM"
	case !m.LazyMaterialization && m.MinSetCover:
		return "MSC"
	}
	return "LIGHT"
}

// backwardMask returns N+π(u) for the vertex at position pos in pi, as a
// bitmask over pattern vertices.
func backwardMask(p *pattern.Pattern, pi []pattern.Vertex, pos int) uint32 {
	var before uint32
	for i := 0; i < pos; i++ {
		before |= 1 << uint(pi[i])
	}
	return p.NeighborMask(pi[pos]) & before
}

// IsConnectedOrder reports whether π is a connected enumeration order:
// every vertex after the first has at least one backward neighbor.
func IsConnectedOrder(p *pattern.Pattern, pi []pattern.Vertex) bool {
	for pos := 1; pos < len(pi); pos++ {
		if backwardMask(p, pi, pos) == 0 {
			return false
		}
	}
	return true
}

// executionOrder is Algorithm 2's GenerateExecutionOrder: MAT every
// still-unvisited backward neighbor of each vertex (in π order) before
// its COMP, then MAT the leftovers in π order. The first `eager`
// vertices of π are materialized as soon as they are computed instead of
// lazily: 1 is the paper's algorithm (only the root, which Algorithm 2
// materializes first anyway); CompileAnchored passes 2.
func executionOrder(p *pattern.Pattern, pi []pattern.Vertex, eager int) []Op {
	n := len(pi)
	visited := make([]bool, p.NumVertices())
	sigma := make([]Op, 0, 2*n-1)
	visited[pi[0]] = true
	sigma = append(sigma, Op{Mat, pi[0]})
	for pos := 1; pos < n; pos++ {
		u := pi[pos]
		back := backwardMask(p, pi, pos)
		for i := 0; i < pos; i++ {
			w := pi[i]
			if back&(1<<uint(w)) != 0 && !visited[w] {
				visited[w] = true
				sigma = append(sigma, Op{Mat, w})
			}
		}
		sigma = append(sigma, Op{Comp, u})
		if pos < eager {
			visited[u] = true
			sigma = append(sigma, Op{Mat, u})
		}
	}
	for _, u := range pi {
		if !visited[u] {
			visited[u] = true
			sigma = append(sigma, Op{Mat, u})
		}
	}
	return sigma
}

// interleavedOrder is SE's implicit execution order: (MAT π[1]),
// (COMP π[2]), (MAT π[2]), … — compute then immediately materialize.
func interleavedOrder(pi []pattern.Vertex) []Op {
	sigma := make([]Op, 0, 2*len(pi)-1)
	sigma = append(sigma, Op{Mat, pi[0]})
	for _, u := range pi[1:] {
		sigma = append(sigma, Op{Comp, u}, Op{Mat, u})
	}
	return sigma
}

// operands computes K1/K2 per vertex. With useCover (Algorithm 3), the
// universe N+(u) is covered by a minimum sub-collection of singletons and
// reusable candidate sets N+(u′) ⊆ N+(u) of earlier vertices; otherwise
// (SE semantics) K1 = N+(u) and K2 = ∅. greedy selects the approximate
// solver instead of the exact one.
func operands(p *pattern.Pattern, pi []pattern.Vertex, useCover, greedy bool) []Operands {
	n := p.NumVertices()
	ops := make([]Operands, n)
	for pos := 1; pos < len(pi); pos++ {
		u := pi[pos]
		universe := backwardMask(p, pi, pos)
		if !useCover {
			ops[u] = Operands{K1: maskVertices(universe)}
			continue
		}
		// Collection: reusable candidate sets first (so the exact solver's
		// earliest-set tie-break prefers them), then singletons.
		type entry struct {
			mask uint32
			k2   pattern.Vertex // -1 for singletons
		}
		var entries []entry
		for j := 1; j < pos; j++ {
			w := pi[j]
			bw := backwardMask(p, pi, j)
			if bw != 0 && bw&universe == bw {
				entries = append(entries, entry{bw, w})
			}
		}
		for m := universe; m != 0; m &= m - 1 {
			w := pattern.Vertex(bits.TrailingZeros32(m))
			entries = append(entries, entry{1 << uint(w), -1})
		}
		sets := make([]uint32, len(entries))
		for i, e := range entries {
			sets[i] = e.mask
		}
		solver := setcover.Exact
		if greedy {
			solver = setcover.Greedy
		}
		cover, ok := solver(universe, sets)
		if !ok {
			// Cannot happen: singletons always cover. Fall back to SE.
			ops[u] = Operands{K1: maskVertices(universe)}
			continue
		}
		var o Operands
		for _, idx := range cover {
			e := entries[idx]
			if e.k2 >= 0 {
				o.K2 = append(o.K2, e.k2)
			} else {
				o.K1 = append(o.K1, bits.TrailingZeros32(e.mask))
			}
		}
		ops[u] = o
	}
	return ops
}

func maskVertices(m uint32) []pattern.Vertex {
	if m == 0 {
		return nil
	}
	out := make([]pattern.Vertex, 0, bits.OnesCount32(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros32(m))
	}
	return out
}

// Compile builds the plan for pattern p with enumeration order pi,
// symmetry-breaking order po, and the given mode. pi must be a connected
// order; po may be nil for patterns with trivial automorphisms.
func Compile(p *pattern.Pattern, po *pattern.PartialOrder, pi []pattern.Vertex, mode Mode) (*Plan, error) {
	return pushed(compile(p, po, pi, mode, 1))
}

// CompileAnchored is Compile for a search that starts at a data edge
// instead of a data vertex: π[1] is materialized directly after π[0] in
// every mode, so σ begins (MAT π[0]) (COMP π[1]) (MAT π[1]) and a run can
// pin the pair (π[0], π[1]) to a data edge and carry on from σ[2] (see
// engine.RunAnchor). Laziness on π[1] would buy nothing there — its
// loop has one candidate per anchor. pi need not respect po's
// precedence; the constraints are checked at whichever MAT comes later.
func CompileAnchored(p *pattern.Pattern, po *pattern.PartialOrder, pi []pattern.Vertex, mode Mode) (*Plan, error) {
	if len(pi) < 2 {
		return nil, fmt.Errorf("plan: anchored order %v has no edge to pin", pi)
	}
	return pushed(compile(p, po, pi, mode, 2))
}

// pushed completes a compiled plan with the constraints its COMPs apply
// and its MATs' injectivity masks (see push). The order search prices
// plans without them and completes only the one it picks.
func pushed(pl *Plan, err error) (*Plan, error) {
	if err != nil {
		return nil, err
	}
	pl.push()
	return pl, nil
}

func compile(p *pattern.Pattern, po *pattern.PartialOrder, pi []pattern.Vertex, mode Mode, eager int) (*Plan, error) {
	n := p.NumVertices()
	if len(pi) != n {
		return nil, fmt.Errorf("plan: order has %d vertices, pattern has %d", len(pi), n)
	}
	seen := uint32(0)
	for _, u := range pi {
		if u < 0 || u >= n || seen&(1<<uint(u)) != 0 {
			return nil, fmt.Errorf("plan: order %v is not a permutation of V(P)", pi)
		}
		seen |= 1 << uint(u)
	}
	if n > 1 && !IsConnectedOrder(p, pi) {
		return nil, fmt.Errorf("plan: order %v is not connected", pi)
	}
	if po == nil {
		po = &pattern.PartialOrder{}
	}

	pl := &Plan{Pattern: p, PO: po, Pi: pi}
	if mode.LazyMaterialization {
		pl.Sigma = executionOrder(p, pi, eager)
	} else {
		pl.Sigma = interleavedOrder(pi)
	}
	// Algorithm 2 appends (MAT, π[1]) inside the loop for π[2]'s backward
	// neighbors; in both modes σ[0] must be (MAT, Pi[0]) because the
	// engine's root loop performs it.
	if pl.Sigma[0].Mode != Mat || pl.Sigma[0].Vertex != pi[0] {
		return nil, fmt.Errorf("plan: internal error: σ[0] = %v, want MAT u%d", pl.Sigma[0], pi[0])
	}
	pl.Ops = operands(p, pi, mode.MinSetCover, mode.GreedyCover)

	// Positions, anchors, free vertices, MAT order.
	pl.PosInPi = make([]int, n)
	for i, u := range pi {
		pl.PosInPi[u] = i
	}
	matPos := make([]int, n)  // σ index of each vertex's MAT
	compPos := make([]int, n) // σ index of each vertex's COMP (root: -1)
	compPos[pi[0]] = -1
	for i, op := range pl.Sigma {
		if op.Mode == Mat {
			matPos[op.Vertex] = i
			pl.MatOrder = append(pl.MatOrder, op.Vertex)
		} else {
			compPos[op.Vertex] = i
		}
	}
	pl.Anchors = make([]uint32, n)
	pl.Free = make([]uint32, n)
	pl.Marks = make([]uint32, n)
	for pos := 1; pos < n; pos++ {
		u := pi[pos]
		for i := 0; i < pos; i++ {
			w := pi[i]
			if matPos[w] < compPos[u] {
				pl.Anchors[u] |= 1 << uint(w)
			} else {
				pl.Free[u] |= 1 << uint(w)
			}
		}
	}

	// Symmetry-breaking checks: each constrained pair (a < b) is checked
	// at the later MAT of the two.
	pl.MatConstraints = make([][]Constraint, len(pl.Sigma))
	for a := 0; a < n; a++ {
		for m := po.Less[a]; m != 0; m &= m - 1 {
			b := pattern.Vertex(bits.TrailingZeros32(m))
			// Constraint φ(a) < φ(b).
			if matPos[a] < matPos[b] {
				i := matPos[b]
				pl.MatConstraints[i] = append(pl.MatConstraints[i], Constraint{Other: a, Lower: true})
			} else {
				i := matPos[a]
				pl.MatConstraints[i] = append(pl.MatConstraints[i], Constraint{Other: b, Lower: false})
			}
		}
	}
	return pl, nil
}

// push moves into Push[u] each constraint of MAT u against an anchor a
// of u (a vertex materialized before COMP u) that every transitive K2
// consumer u′ of C(u) shares: a <* u′ for a lower bound, u′ <* a for an
// upper one, under the transitive closure <* of the partial order. A
// cut C(u) narrows every C(u′) built on it, and then drops only images
// that violate u′'s own order. It then sets Distinct from every MAT's
// full constraint list: pushed or not, a constraint's window excludes
// its other vertex's image.
func (pl *Plan) push() {
	p, n := pl.Pattern, pl.Pattern.NumVertices()
	var above, below [pattern.MaxVertices]uint32 // above[a]: every b with a <* b
	copy(above[:], pl.PO.Less[:])
	for k := 0; k < n; k++ {
		for a := 0; a < n; a++ {
			if above[a]&(1<<uint(k)) != 0 {
				above[a] |= above[k]
			}
		}
	}
	for a := 0; a < n; a++ {
		for m := above[a]; m != 0; m &= m - 1 {
			below[bits.TrailingZeros32(m)] |= 1 << uint(a)
		}
	}
	var consumers [pattern.MaxVertices]uint32 // transitive K2 consumers, filled in reverse π
	for pos := n - 1; pos > 0; pos-- {
		u := pl.Pi[pos]
		for _, w := range pl.Ops[u].K2 {
			consumers[w] |= 1<<uint(u) | consumers[u]
		}
	}
	pl.Push = make([][]Constraint, n)
	pl.Distinct = make([]uint32, len(pl.Sigma))
	var mat uint32
	for i, op := range pl.Sigma {
		if op.Mode != Mat {
			continue
		}
		u := op.Vertex
		distinct := mat &^ p.NeighborMask(u)
		kept := pl.MatConstraints[i][:0]
		for _, c := range pl.MatConstraints[i] {
			distinct &^= 1 << uint(c.Other)
			held := above[c.Other]
			if !c.Lower {
				held = below[c.Other]
			}
			if pl.Anchors[u]&(1<<uint(c.Other)) != 0 && consumers[u]&^held == 0 {
				pl.Push[u] = append(pl.Push[u], c)
			} else {
				kept = append(kept, c)
			}
		}
		pl.MatConstraints[i] = kept
		pl.Distinct[i] = distinct
		mat |= 1 << uint(u)
	}
}

// step is one σ operation as the cost walk prices it: reach is how many
// times the engine is expected to execute it, cost what those executions
// add to the plan's cost (elements scanned for a COMP, search nodes for a
// MAT).
type step struct {
	reach, cost float64
}

// Cost prices the plan on a graph described by stats. It keeps Equation
// 8's two sums — intersection work over the COMPs plus partial results
// over the MATs — but takes both from a walk of σ, so that it sees the
// search the engine runs (see walk).
func (pl *Plan) Cost(stats estimate.GraphStats) float64 {
	return pl.walk(stats, orderFractions(pl.PO, pl.Pattern.NumVertices()), nil)
}

// EstimatedMatches is the cost walk's estimate of the plan's match count
// on a graph described by stats: the reach of σ's last step, where every
// vertex is materialized and symmetry breaking has cut the count to the
// matches the engine keeps.
func (pl *Plan) EstimatedMatches(stats estimate.GraphStats) float64 {
	steps := make([]step, len(pl.Sigma))
	pl.walk(stats, orderFractions(pl.PO, pl.Pattern.NumVertices()), steps)
	return steps[len(steps)-1].reach
}

// walk prices σ in order and returns the total cost, filling steps when
// it is non-nil. With M the materialized vertices at a step, its reach is
//
//	R(P[M]) × frac[M] × Π Pr[C(w) ≠ ∅] over computed, unmaterialized w,
//
// where R(P[M]) grows by E|C(w)| at each MAT w, frac[M] is the share of
// M's orderings the partial order admits (symmetry breaking cuts each MAT
// loop to a window), and the product is lazy materialization's pruning:
// an empty C(w) ends the branch at its COMP, long before w's MAT. |C(w)|
// is taken as Poisson, so Pr[C(w) ≠ ∅] = 1 − e^(−E|C(w)|). A COMP
// with two or more operands costs reach × the sum of their expected
// lengths; an aliased one costs nothing. A MAT costs the reach after it.
func (pl *Plan) walk(stats estimate.GraphStats, frac []float64, steps []step) float64 {
	p := pl.Pattern
	var below [pattern.MaxVertices]uint32 // below[x]: the vertices held below x
	for a := 0; a < p.NumVertices(); a++ {
		for m := pl.PO.Less[a]; m != 0; m &= m - 1 {
			below[bits.TrailingZeros32(m)] |= 1 << uint(a)
		}
	}
	// degree is the expected |N(φ(x))|: a vertex held below (above) some
	// other materialized vertex is the lower (higher) end of its edges.
	degree := func(x pattern.Vertex, mat uint32) float64 {
		low, high := pl.PO.Less[x]&mat != 0, below[x]&mat != 0
		switch {
		case low && !high:
			return stats.LowDegree
		case high && !low:
			return stats.HighDegree
		}
		return stats.ExpandFactor()
	}
	// size is E|C(u)|: the mean degree of u's backward neighbours, closed
	// by every backward edge beyond the first with the clustering
	// coefficient.
	size := func(u pattern.Vertex, mat uint32) float64 {
		back := p.NeighborMask(u) & pl.Anchors[u]
		sum := 0.0
		for m := back; m != 0; m &= m - 1 {
			sum += degree(bits.TrailingZeros32(m), mat)
		}
		k := bits.OnesCount32(back)
		return sum / float64(k) * math.Pow(stats.Clustering, float64(k-1))
	}
	var mat, computed uint32
	r, total := 1.0, 0.0
	reach := func() float64 {
		x := r * frac[mat]
		for m := computed &^ mat; m != 0; m &= m - 1 {
			x *= -math.Expm1(-size(bits.TrailingZeros32(m), mat))
		}
		return x
	}
	for i, op := range pl.Sigma {
		u := op.Vertex
		var st step
		if op.Mode == Mat {
			if i == 0 {
				r = stats.N
			} else {
				r *= size(u, mat)
			}
			mat |= 1 << uint(u)
			st.reach = reach()
			st.cost = st.reach
		} else {
			st.reach = reach()
			if o := pl.Ops[u]; o.W() > 0 {
				length := 0.0
				for _, w := range o.K1 {
					length += degree(w, mat)
				}
				for _, w := range o.K2 {
					length += size(w, mat)
				}
				st.cost = st.reach * length
			}
			computed |= 1 << uint(u)
		}
		total += st.cost
		if steps != nil {
			steps[i] = st
		}
	}
	return total
}

// markBreakEven is how many runs of a COMP per value of a fixed operand
// pay for that operand's mark. Setting N(φ(w))'s bits and clearing them
// again when φ(w) moves on touches about 2·deg(φ(w)) words, and each run
// saves one deg-long merge over N(φ(w)). The mark's |V|/64 + 1 words are
// not in the rule: a worker carves them once per query and clears
// them bit by bit as φ(w) moves, never whole.
const markBreakEven = 2

// mark sets Marks from the walk of σ under stats: COMP u flags a K1
// operand w that an inner MAT loop holds fixed (see markWhere) when the
// walk expects at least markBreakEven runs of COMP u per value of φ(w).
func (pl *Plan) mark(stats estimate.GraphStats, frac []float64) {
	steps := make([]step, len(pl.Sigma))
	pl.walk(stats, frac, steps)
	pl.markWhere(func(comp, mat int) bool {
		return steps[comp].reach >= markBreakEven*steps[mat].reach
	})
}

// MarkAll returns a copy of pl that marks every operand the mark rule
// may flag, whatever the walk expects of it, or nil when there is none.
// It runs marks on plans the planner leaves unmarked, such as every
// plan of a graph too small for marks to pay.
func (pl *Plan) MarkAll() *Plan {
	cp := *pl
	cp.Marks = make([]uint32, len(pl.Marks))
	cp.markWhere(func(int, int) bool { return true })
	for _, m := range cp.Marks {
		if m != 0 {
			return &cp
		}
	}
	return nil
}

// markWhere sets Marks: COMP σ[i] flags its K1 operand w, MAT'd at
// σ[j], when a MAT lies in σ between the two, so an inner loop re-runs
// the COMP with φ(w) unchanged, and pays(i, j) holds. One operand always
// stays unflagged, the list the marks filter; when every operand
// qualifies, the one materialized last, which changes most often, is
// left out.
func (pl *Plan) markWhere(pays func(i, j int) bool) {
	matPos := make([]int, pl.Pattern.NumVertices())
	for i, op := range pl.Sigma {
		if op.Mode == Mat {
			matPos[op.Vertex] = i
		}
	}
	for i, op := range pl.Sigma {
		if op.Mode != Comp {
			continue
		}
		o := pl.Ops[op.Vertex]
		var marks uint32
		last := -1
		for _, w := range o.K1 {
			j := matPos[w]
			inner := false
			for k := j + 1; k < i; k++ {
				inner = inner || pl.Sigma[k].Mode == Mat
			}
			if inner && pays(i, j) {
				marks |= 1 << uint(w)
				if last < 0 || j > matPos[last] {
					last = w
				}
			}
		}
		if bits.OnesCount32(marks) == len(o.K1)+len(o.K2) {
			marks &^= 1 << uint(last)
		}
		pl.Marks[op.Vertex] = marks
	}
}

// orderFractions returns, for every vertex mask M, the share of M's
// orderings that po's constraints among M admit: the number of linear
// extensions of po restricted to M over |M|!. It is ½ once both sides of
// one constraint are in M, and 1/n! for a total order on all n vertices.
func orderFractions(po *pattern.PartialOrder, n int) []float64 {
	ext := make([]float64, 1<<uint(n))
	ext[0] = 1
	for m := uint32(1); m < uint32(len(ext)); m++ {
		// Count extensions by their last vertex: one with no successor in M.
		for r := m; r != 0; r &= r - 1 {
			u := bits.TrailingZeros32(r)
			if po.Less[u]&m == 0 {
				ext[m] += ext[m&^(1<<uint(u))]
			}
		}
	}
	fact := make([]float64, n+1)
	fact[0] = 1
	for k := 1; k <= n; k++ {
		fact[k] = fact[k-1] * float64(k)
	}
	for m := range ext {
		ext[m] /= fact[bits.OnesCount32(uint32(m))]
	}
	return ext
}
