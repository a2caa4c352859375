package plan

import (
	"context"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/pattern"
)

// paperPi is the running example's enumeration order (u0, u2, u1, u3).
var paperPi = []pattern.Vertex{0, 2, 1, 3}

func TestExecutionOrderPaperExample(t *testing.T) {
	// Example IV.1: σ = (MAT u0, COMP u2, MAT u2, COMP u1, COMP u3,
	// MAT u1, MAT u3) for P2 with π = (u0, u2, u1, u3).
	p := pattern.P2()
	pl, err := Compile(p, &pattern.PartialOrder{}, paperPi, ModeLM)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Mat, 0}, {Comp, 2}, {Mat, 2}, {Comp, 1}, {Comp, 3}, {Mat, 1}, {Mat, 3},
	}
	if !reflect.DeepEqual(pl.Sigma, want) {
		t.Fatalf("σ = %v, want %v", pl.Sigma, want)
	}
	if !pl.Lazy() {
		t.Error("LM plan should be lazy")
	}
}

func TestInterleavedOrder(t *testing.T) {
	p := pattern.P2()
	pl, err := Compile(p, &pattern.PartialOrder{}, paperPi, ModeSE)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Mat, 0}, {Comp, 2}, {Mat, 2}, {Comp, 1}, {Mat, 1}, {Comp, 3}, {Mat, 3},
	}
	if !reflect.DeepEqual(pl.Sigma, want) {
		t.Fatalf("σ = %v, want %v", pl.Sigma, want)
	}
	if pl.Lazy() {
		t.Error("SE plan should not be lazy")
	}
}

func TestAnchorsAndFree(t *testing.T) {
	// Example IV.2: for u3 (fourth in π), A = {u0, u2}, F = {u1}.
	p := pattern.P2()
	pl, err := Compile(p, &pattern.PartialOrder{}, paperPi, ModeLM)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Anchors[3] != 0b0101 {
		t.Errorf("Anchors(u3) = %04b, want 0101", pl.Anchors[3])
	}
	if pl.Free[3] != 0b0010 {
		t.Errorf("Free(u3) = %04b, want 0010", pl.Free[3])
	}
	// For u1 (third in π), anchors are {u0, u2} and free is empty.
	if pl.Anchors[1] != 0b0101 || pl.Free[1] != 0 {
		t.Errorf("u1: anchors=%04b free=%04b", pl.Anchors[1], pl.Free[1])
	}
}

func TestOperandsMSCPaperExample(t *testing.T) {
	// Example V.1: for u3, U = {u0,u2}, and the min cover is N+(u1) =
	// {u0,u2}, so K1 = ∅ and K2 = {u1}.
	p := pattern.P2()
	pl, err := Compile(p, &pattern.PartialOrder{}, paperPi, ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	o3 := pl.Ops[3]
	if len(o3.K1) != 0 || !reflect.DeepEqual(o3.K2, []pattern.Vertex{1}) {
		t.Fatalf("operands(u3) = %+v, want K1=∅ K2=[1]", o3)
	}
	if o3.W() != 0 {
		t.Errorf("w(u3) = %d, want 0", o3.W())
	}
	// u1: U = {u0,u2}; no reusable set strictly earlier covers it (u2's
	// backward set is {u0}, a subset but smaller) — cover must be either
	// the two singletons or {u0 singleton is covered by N+(u2)={u0}}…
	// minimal size is 2 either way, so w(u1) = 1.
	if got := pl.Ops[1].W(); got != 1 {
		t.Errorf("w(u1) = %d, want 1", got)
	}
	// SE mode: w(u1) = w(u3) = |N+|-1 = 1 each.
	se, _ := Compile(p, &pattern.PartialOrder{}, paperPi, ModeSE)
	if se.Ops[3].W() != 1 || se.Ops[1].W() != 1 {
		t.Errorf("SE w = %d,%d, want 1,1", se.Ops[1].W(), se.Ops[3].W())
	}
	// Proposition V.1: w_MSC ≤ w_SE for every vertex.
	for u := 0; u < p.NumVertices(); u++ {
		if pl.Ops[u].W() > se.Ops[u].W() {
			t.Errorf("Proposition V.1 violated at u%d: %d > %d", u, pl.Ops[u].W(), se.Ops[u].W())
		}
	}
}

func TestPropositionV1AllCatalog(t *testing.T) {
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		for _, pi := range ConnectedOrders(p, po) {
			msc, err := Compile(p, po, pi, ModeMSC)
			if err != nil {
				t.Fatal(err)
			}
			se, err := Compile(p, po, pi, ModeSE)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < p.NumVertices(); u++ {
				if msc.Ops[u].W() > se.Ops[u].W() {
					t.Fatalf("%s π=%v u%d: w_MSC %d > w_SE %d", p.Name(), pi, u, msc.Ops[u].W(), se.Ops[u].W())
				}
			}
		}
	}
}

func TestSigmaWellFormed(t *testing.T) {
	// For every catalog pattern, order and mode: σ contains each vertex's
	// MAT exactly once, each non-root COMP exactly once, every backward
	// neighbor's MAT precedes the COMP, every K1 vertex's MAT precedes
	// the COMP, and every K2 vertex's COMP precedes the COMP.
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		for _, mode := range []Mode{ModeSE, ModeLM, ModeMSC, ModeLIGHT} {
			for _, pi := range ConnectedOrders(p, po) {
				pl, err := Compile(p, po, pi, mode)
				if err != nil {
					t.Fatal(err)
				}
				checkSigmaWellFormed(t, p, pl, pi, mode)
			}
		}
	}
}

// TestAnchoredPlansWellFormed holds CompileAnchored to the same σ rules
// over every connected order (anchored orders ignore the partial
// order's precedence), plus its own: π[1] is materialized straight after
// π[0]. ChooseAnchored must return such a plan for every ordered pattern
// edge and refuse a non-edge.
func TestAnchoredPlansWellFormed(t *testing.T) {
	stats := estimate.Collect(gen.BarabasiAlbert(500, 4, 3))
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		for _, mode := range []Mode{ModeSE, ModeLM, ModeMSC, ModeLIGHT} {
			for _, pi := range ConnectedOrders(p, nil) {
				pl, err := CompileAnchored(p, po, pi, mode)
				if err != nil {
					t.Fatal(err)
				}
				checkSigmaWellFormed(t, p, pl, pi, mode)
				want := []Op{{Mat, pi[0]}, {Comp, pi[1]}, {Mat, pi[1]}}
				if !reflect.DeepEqual(pl.Sigma[:3], want) {
					t.Fatalf("%s %s π=%v: σ starts %v, want %v", p.Name(), mode.Name(), pi, pl.Sigma[:3], want)
				}
			}
			for a := 0; a < p.NumVertices(); a++ {
				for b := 0; b < p.NumVertices(); b++ {
					pl, err := ChooseAnchored(context.Background(), p, po, stats, mode, a, b)
					if !p.HasEdge(a, b) {
						if err == nil {
							t.Fatalf("%s: ChooseAnchored accepted the non-edge (u%d, u%d)", p.Name(), a, b)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if pl.Pi[0] != a || pl.Pi[1] != b || !IsConnectedOrder(p, pl.Pi) {
						t.Fatalf("%s: ChooseAnchored(u%d, u%d) chose π=%v", p.Name(), a, b, pl.Pi)
					}
				}
			}
		}
	}
}

func checkSigmaWellFormed(t *testing.T, p *pattern.Pattern, pl *Plan, pi []pattern.Vertex, mode Mode) {
	t.Helper()
	n := p.NumVertices()
	if len(pl.Sigma) != 2*n-1 {
		t.Fatalf("%s %s: |σ| = %d, want %d", p.Name(), mode.Name(), len(pl.Sigma), 2*n-1)
	}
	matPos := make([]int, n)
	compPos := make([]int, n)
	for i := range matPos {
		matPos[i], compPos[i] = -1, -1
	}
	for i, op := range pl.Sigma {
		if op.Mode == Mat {
			if matPos[op.Vertex] != -1 {
				t.Fatalf("duplicate MAT u%d", op.Vertex)
			}
			matPos[op.Vertex] = i
		} else {
			if compPos[op.Vertex] != -1 {
				t.Fatalf("duplicate COMP u%d", op.Vertex)
			}
			compPos[op.Vertex] = i
		}
	}
	for u := 0; u < n; u++ {
		if matPos[u] == -1 {
			t.Fatalf("missing MAT u%d", u)
		}
		if u != pi[0] && compPos[u] == -1 {
			t.Fatalf("missing COMP u%d", u)
		}
		if u == pi[0] {
			continue
		}
		for _, w := range pl.Ops[u].K1 {
			if matPos[w] > compPos[u] {
				t.Fatalf("%s %s π=%v: K1 vertex u%d not materialized before COMP u%d", p.Name(), mode.Name(), pi, w, u)
			}
		}
		for _, w := range pl.Ops[u].K2 {
			if compPos[w] > compPos[u] {
				t.Fatalf("%s %s π=%v: K2 vertex u%d not computed before COMP u%d", p.Name(), mode.Name(), pi, w, u)
			}
		}
		// Operand union must equal the backward neighborhood:
		// ∩K1 neighbor lists ∩ K2 candidate sets ≡ ∩ N+(u).
		var covered uint32
		for _, w := range pl.Ops[u].K1 {
			covered |= 1 << uint(w)
		}
		for _, w := range pl.Ops[u].K2 {
			covered |= backwardOf(p, pi, w)
		}
		if covered != backwardOf(p, pi, u) {
			t.Fatalf("%s %s π=%v u%d: operands cover %b, want %b", p.Name(), mode.Name(), pi, u, covered, backwardOf(p, pi, u))
		}
	}
}

// backwardOf recomputes N+π(u) independently of the plan internals.
func backwardOf(p *pattern.Pattern, pi []pattern.Vertex, u pattern.Vertex) uint32 {
	var before uint32
	for _, w := range pi {
		if w == u {
			break
		}
		before |= 1 << uint(w)
	}
	return p.NeighborMask(u) & before
}

// TestMatConstraintsCoverAllPairs: every pair of the partial order is
// checked once, at the later MAT of the two or pushed into its COMP.
func TestMatConstraintsCoverAllPairs(t *testing.T) {
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		pi := ConnectedOrders(p, po)[0]
		for _, mode := range []Mode{ModeSE, ModeLIGHT} {
			pl, err := Compile(p, po, pi, mode)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, cs := range pl.MatConstraints {
				total += len(cs)
			}
			for _, cs := range pl.Push {
				total += len(cs)
			}
			if want := len(po.Pairs()); total != want {
				t.Fatalf("%s %s: %d constraint checks, at MATs and pushed into COMPs, want %d", p.Name(), mode.Name(), total, want)
			}
		}
	}
}

func TestCompileRejectsBadOrders(t *testing.T) {
	p := pattern.P2()
	if _, err := Compile(p, nil, []pattern.Vertex{0, 1}, ModeSE); err == nil {
		t.Error("accepted short order")
	}
	if _, err := Compile(p, nil, []pattern.Vertex{0, 0, 1, 2}, ModeSE); err == nil {
		t.Error("accepted non-permutation")
	}
	if _, err := Compile(p, nil, []pattern.Vertex{1, 3, 0, 2}, ModeSE); err == nil {
		t.Error("accepted disconnected order (1 and 3 are not adjacent)")
	}
}

func TestConnectedOrdersCounts(t *testing.T) {
	// Triangle with no partial order: all 3! = 6 permutations are
	// connected.
	if got := len(ConnectedOrders(pattern.Triangle(), nil)); got != 6 {
		t.Errorf("triangle orders = %d, want 6", got)
	}
	// With symmetry breaking (u0<u1<u2) only one order remains.
	po := pattern.SymmetryBreaking(pattern.Triangle())
	if got := len(ConnectedOrders(pattern.Triangle(), po)); got != 1 {
		t.Errorf("triangle constrained orders = %d, want 1", got)
	}
	// Path 0-1-2: connected orders are 012, 102, 120, 210 = 4.
	if got := len(ConnectedOrders(pattern.Path(3), nil)); got != 4 {
		t.Errorf("path3 orders = %d, want 4", got)
	}
}

func TestChooseDeterministicAndValid(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 3)
	stats := estimate.Collect(g)
	for _, p := range pattern.Catalog() {
		pl1, err := Choose(p, nil, stats, ModeLIGHT)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		pl2, err := Choose(p, nil, stats, ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pl1.Pi, pl2.Pi) {
			t.Fatalf("%s: Choose not deterministic: %v vs %v", p.Name(), pl1.Pi, pl2.Pi)
		}
		if !IsConnectedOrder(p, pl1.Pi) {
			t.Fatalf("%s: chosen order not connected", p.Name())
		}
	}
}

func TestChooseRespectsPartialOrderPositions(t *testing.T) {
	// Symmetry-breaking pairs must appear in π respecting u before v.
	g := gen.BarabasiAlbert(300, 4, 5)
	stats := estimate.Collect(g)
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		pl, err := Choose(p, po, stats, ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range po.Pairs() {
			if pl.PosInPi[pr[0]] > pl.PosInPi[pr[1]] {
				t.Fatalf("%s: constraint u%d<u%d violated by π=%v", p.Name(), pr[0], pr[1], pl.Pi)
			}
		}
	}
}

func TestCostPositiveAndComparable(t *testing.T) {
	g := gen.BarabasiAlbert(500, 5, 9)
	stats := estimate.Collect(g)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	pi := ConnectedOrders(p, po)[0]
	light, _ := Compile(p, po, pi, ModeLIGHT)
	se, _ := Compile(p, po, pi, ModeSE)
	cl, cs := light.Cost(stats), se.Cost(stats)
	if cl <= 0 || cs <= 0 {
		t.Fatalf("costs must be positive: light=%g se=%g", cl, cs)
	}
	if cl > cs {
		t.Fatalf("LIGHT cost %g should not exceed SE cost %g on the same order", cl, cs)
	}
}

// TestEstimatedMatchesExactOnCompleteEdge: one edge on K10 reaches
// N·(N−1) ordered pairs, and symmetry breaking keeps half of them, so
// the walk's estimate is exactly the graph's 45 edges.
func TestEstimatedMatchesExactOnCompleteEdge(t *testing.T) {
	p, stats := pattern.Path(2), estimate.Collect(gen.Complete(10))
	pl, err := Choose(p, pattern.SymmetryBreaking(p), stats, ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.EstimatedMatches(stats); math.Abs(got-45) > 1e-9 {
		t.Fatalf("edge estimate on K10 = %v, want 45", got)
	}
}

// TestOrderFractions pins the walk's symmetry-breaking term: the share of
// a vertex set's orderings that the partial order admits. P4's one
// constraint halves it once u0 and u1 are both placed; P7's total order
// leaves 1/k! of k placed vertices.
func TestOrderFractions(t *testing.T) {
	p4 := orderFractions(pattern.SymmetryBreaking(pattern.P4()), 5)
	for _, c := range []struct {
		mask uint32
		want float64
	}{{0b00001, 1}, {0b10101, 1}, {0b00011, 0.5}, {0b11111, 0.5}} {
		if got := p4[c.mask]; got != c.want {
			t.Errorf("P4 frac[%05b] = %v, want %v", c.mask, got, c.want)
		}
	}
	p7 := orderFractions(pattern.SymmetryBreaking(pattern.P7()), 5)
	if got := p7[0b11111]; math.Abs(got-1.0/120) > 1e-15 {
		t.Errorf("P7 full mask: %v, want 1/120", got)
	}
	if got := p7[0b10101]; math.Abs(got-1.0/6) > 1e-15 {
		t.Errorf("P7 {u0,u2,u4}: %v, want 1/6", got)
	}
}

// TestChooseOnLJS pins the planner's choice on the generated lj-s to the
// orders `benchpaper -exp regret` finds scanning the fewest elements
// under the default kernel (EXPERIMENTS.md "Planner regret"): for P4 the
// three orders that tie at 9,487,597 elements, for P6 the 1.00× order.
// Eq. 8 priced with one α and SEED cardinalities picks 0 4 1 3 2 (3.2×
// the elements) and 0 2 1 4 3 (1.3×). It also pins the marks the chosen
// plans carry: P1's and P4's COMP u2 re-run 4.5× and 4.8× per φ(u1)
// under the inner MAT loop over u3, so both mark u1; nothing in P6
// re-runs often enough. Only statistics are collected; nothing is
// enumerated.
func TestChooseOnLJS(t *testing.T) {
	d, err := gen.ByName("lj-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	stats := estimate.Collect(d.Make())
	for _, c := range []struct {
		p     *pattern.Pattern
		want  [][]pattern.Vertex // nil: order not pinned
		marks []uint32
	}{
		{pattern.P1(), nil, []uint32{0, 0, 1 << 1, 0}},
		{pattern.P4(), [][]pattern.Vertex{{0, 1, 3, 4, 2}, {0, 1, 4, 3, 2}, {0, 3, 1, 4, 2}}, []uint32{0, 0, 1 << 1, 0, 0}},
		{pattern.P6(), [][]pattern.Vertex{{0, 1, 2, 4, 3}}, []uint32{0, 0, 0, 0, 0}},
	} {
		pl, err := Choose(c.p, nil, stats, ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		ok := c.want == nil
		for _, pi := range c.want {
			ok = ok || reflect.DeepEqual(pl.Pi, pi)
		}
		if !ok {
			t.Errorf("%s: Choose picked π = %v, want one of %v\n%s", c.p.Name(), pl.Pi, c.want, pl.Explain(stats))
		}
		out := pl.Explain(stats)
		if !reflect.DeepEqual(pl.Marks, c.marks) {
			t.Errorf("%s: marks %v, want %v\n%s", c.p.Name(), pl.Marks, c.marks, out)
		}
		wantLine := c.marks[2] != 0
		if strings.Contains(out, "marks {u1}") != wantLine || strings.Contains(out, "bitmap kernel only") != wantLine {
			t.Errorf("%s: Explain shows COMP u2's mark and its kernel note %v, want %v:\n%s", c.p.Name(), !wantLine, wantLine, out)
		}
	}
}

// TestExplainShowsPushAndDistinct pins what Explain prints of the
// plan's pushed windows and injectivity masks on lj-s's chosen plans.
// P3, a clique, pushes every constraint into its COMP, so each COMP
// cuts its operands above every earlier image and no MAT keeps a check.
// P4's u0 < u1 cannot be pushed, since C(u1) also feeds COMP u3 and
// COMP u4, which u0 < u1 does not bound. Three of P4's MATs keep an
// injectivity check, against the images that are neither pattern
// neighbours nor constrained.
func TestExplainShowsPushAndDistinct(t *testing.T) {
	d, err := gen.ByName("lj-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	stats := estimate.Collect(d.Make())
	for _, c := range []struct {
		p    *pattern.Pattern
		rows map[string]string // σ row → what it prints after its operands
	}{
		{pattern.P3(), map[string]string{
			"MAT u0": "", "COMP u1": "cut to > φ(u0)", "MAT u1": "",
			"COMP u2": "cut to > φ(u0), > φ(u1)", "MAT u2": "",
			"COMP u3": "cut to > φ(u0), > φ(u1), > φ(u2)", "MAT u3": "",
		}},
		{pattern.P4(), map[string]string{
			"MAT u0": "", "COMP u1": "", "COMP u3": "", "MAT u1": "require v > φ(u0)",
			"COMP u4": "", "MAT u3": "distinct from {u1}", "COMP u2": "marks {u1}",
			"MAT u4": "distinct from {u3}", "MAT u2": "distinct from {u0,u4}",
		}},
	} {
		pl, err := Choose(c.p, nil, stats, ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		out := pl.Explain(stats)
		seen := 0
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "COMP" && f[1] != "MAT") {
				continue
			}
			row := f[1] + " " + f[2]
			want, ok := c.rows[row]
			if !ok {
				t.Errorf("%s: unexpected σ row %q", c.p.Name(), line)
				continue
			}
			seen++
			at := len(line)
			for _, key := range []string{"marks {", "cut to", "require", "distinct from"} {
				if k := strings.Index(line, key); k >= 0 && k < at {
					at = k
				}
			}
			if got := line[at:]; got != want {
				t.Errorf("%s %s prints %q, want %q\n%s", c.p.Name(), row, got, want, out)
			}
		}
		if seen != len(c.rows) {
			t.Errorf("%s: %d σ rows, want %d\n%s", c.p.Name(), seen, len(c.rows), out)
		}
	}
}

// TestMarksWellFormed holds every mark MarkAll sets, over every catalog
// pattern, order and mode, to the rule's structural part: a marked
// operand is a K1 operand whose MAT lies before another MAT that
// precedes the COMP, and every COMP keeps one operand unmarked. A
// lane batch runs one plan's marks for every lane, so a plan that
// differs from another only in marks must not share its CompatKey.
func TestMarksWellFormed(t *testing.T) {
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		for _, mode := range []Mode{ModeSE, ModeLM, ModeMSC, ModeLIGHT} {
			for _, pi := range ConnectedOrders(p, po) {
				pl, err := Compile(p, po, pi, mode)
				if err != nil {
					t.Fatal(err)
				}
				mpl := pl.MarkAll()
				if mpl == nil {
					continue
				}
				pos := map[Op]int{}
				for i, op := range mpl.Sigma {
					pos[op] = i
				}
				for u, m := range mpl.Marks {
					o := mpl.Ops[u]
					var k1 uint32
					for _, w := range o.K1 {
						k1 |= 1 << uint(w)
					}
					if m&^k1 != 0 || (m != 0 && bits.OnesCount32(m) >= len(o.K1)+len(o.K2)) {
						t.Fatalf("%s %s π=%v: u%d marks %b, K1 %v, K2 %v", p.Name(), mode.Name(), pi, u, m, o.K1, o.K2)
					}
					for ; m != 0; m &= m - 1 {
						w := bits.TrailingZeros32(m)
						inner := false
						for k := pos[Op{Mat, w}] + 1; k < pos[Op{Comp, u}]; k++ {
							inner = inner || mpl.Sigma[k].Mode == Mat
						}
						if !inner {
							t.Fatalf("%s %s π=%v: u%d marks u%d with no MAT between", p.Name(), mode.Name(), pi, u, w)
						}
					}
				}
				if pl.CompatKey() == mpl.CompatKey() {
					t.Fatalf("%s %s π=%v: plans differing only in marks share a CompatKey", p.Name(), mode.Name(), pi)
				}
				for _, m := range pl.Marks {
					if m != 0 {
						t.Fatalf("%s %s π=%v: Compile marked %v, MarkAll changed the original", p.Name(), mode.Name(), pi, pl.Marks)
					}
				}
			}
		}
	}
}

func TestModeNames(t *testing.T) {
	if ModeSE.Name() != "SE" || ModeLM.Name() != "LM" || ModeMSC.Name() != "MSC" || ModeLIGHT.Name() != "LIGHT" {
		t.Fatal("mode names wrong")
	}
	if Comp.String() != "COMP" || Mat.String() != "MAT" {
		t.Fatal("op mode names wrong")
	}
}

func TestStringAndWTotal(t *testing.T) {
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	light, err := Compile(p, po, paperPi, ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	se, err := Compile(p, po, paperPi, ModeSE)
	if err != nil {
		t.Fatal(err)
	}
	// LIGHT's per-path intersection budget on the running example: 1
	// (COMP u1 does one, u2 and u3 are free). SE does 2 (u1, u3).
	if light.WTotal() != 1 || se.WTotal() != 2 {
		t.Fatalf("WTotal: light=%d se=%d, want 1,2", light.WTotal(), se.WTotal())
	}
	s := light.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("String = %q", s)
	}
}

func TestSingleVertexPattern(t *testing.T) {
	p := pattern.MustNew("v", 1, nil)
	pl, err := Compile(p, nil, []pattern.Vertex{0}, ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Sigma) != 1 || pl.Sigma[0].Mode != Mat {
		t.Fatalf("σ = %v", pl.Sigma)
	}
}

func TestExplain(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 1)
	stats := estimate.Collect(g)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	pl, err := Compile(p, po, paperPi, ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	out := pl.Explain(stats)
	for _, want := range []string{"enumeration order", "COMP", "MAT", "aliased", "estimated reach", "COMP elements", "u0<u2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	// A pattern with no symmetry must say so.
	paw := pattern.MustNew("asympaw", 4, [][2]pattern.Vertex{{0, 1}, {1, 2}, {2, 3}, {1, 3}})
	_ = paw // paw has one swap; build truly asymmetric 5-vertex pattern
	asym := pattern.MustNew("asym", 5, [][2]pattern.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}, {0, 2}})
	if len(asym.Automorphisms()) == 1 {
		apo := pattern.SymmetryBreaking(asym)
		apl, err := Compile(asym, apo, ConnectedOrders(asym, apo)[0], ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(apl.Explain(stats), "trivial automorphism") {
			t.Fatal("Explain should note trivial groups")
		}
	}
}
