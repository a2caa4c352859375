package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"light/internal/delta"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// bruteCount counts injective homomorphisms from p to g that satisfy the
// partial order, by naive recursion in natural vertex order with no
// candidate machinery. The independent reference for all engines.
func bruteCount(p *pattern.Pattern, po *pattern.PartialOrder, g *graph.Graph) uint64 {
	n := p.NumVertices()
	nv := g.NumVertices()
	assigned := make([]graph.VertexID, n)
	used := make([]bool, nv)
	var count uint64
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			count++
			return
		}
		for v := 0; v < nv; v++ {
			if used[v] {
				continue
			}
			ok := true
			for w := 0; w < u && ok; w++ {
				if p.HasEdge(u, w) && !g.HasEdge(graph.VertexID(v), assigned[w]) {
					ok = false
				}
			}
			if ok && po != nil {
				for w := 0; w < u && ok; w++ {
					if po.Less[w]&(1<<uint(u)) != 0 && assigned[w] >= graph.VertexID(v) {
						ok = false
					}
					if po.Less[u]&(1<<uint(w)) != 0 && graph.VertexID(v) >= assigned[w] {
						ok = false
					}
				}
			}
			if !ok {
				continue
			}
			assigned[u] = graph.VertexID(v)
			used[v] = true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
	return count
}

var allModes = []plan.Mode{plan.ModeSE, plan.ModeLM, plan.ModeMSC, plan.ModeLIGHT}

// testGraphs returns small graphs diverse enough to exercise every code
// path: skewed, uniform, dense, disconnected-ish.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ba":       gen.BarabasiAlbert(60, 3, 1),
		"er":       gen.ErdosRenyi(50, 120, 2),
		"complete": gen.Complete(9),
		"grid":     gen.Grid(5, 6),
		"star":     gen.Star(12),
		"sparse":   gen.ErdosRenyi(40, 30, 3),
	}
}

func TestEnginesMatchBruteForceAllModesAllOrders(t *testing.T) {
	graphs := testGraphs()
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.P1(), pattern.P2(), pattern.Path(3), pattern.StarPattern(3)}
	for gname, g := range graphs {
		for _, p := range pats {
			po := pattern.SymmetryBreaking(p)
			want := bruteCount(p, po, g)
			for _, pi := range plan.ConnectedOrders(p, po) {
				for _, mode := range allModes {
					pl, err := plan.Compile(p, po, pi, mode)
					if err != nil {
						t.Fatal(err)
					}
					res, err := New(g, pl, Options{}).Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.Matches != want {
						t.Fatalf("%s/%s mode=%s π=%v: got %d, want %d",
							gname, p.Name(), mode.Name(), pi, res.Matches, want)
					}
				}
			}
		}
	}
}

func TestEnginesMatchBruteForceCatalog(t *testing.T) {
	// Full catalog on two graphs with the chosen (not exhaustive) order.
	graphs := map[string]*graph.Graph{
		"ba": gen.BarabasiAlbert(45, 4, 7),
		"er": gen.ErdosRenyi(35, 100, 8),
	}
	for gname, g := range graphs {
		for _, p := range pattern.Catalog() {
			po := pattern.SymmetryBreaking(p)
			want := bruteCount(p, po, g)
			pi := plan.ConnectedOrders(p, po)[0]
			for _, mode := range allModes {
				pl, err := plan.Compile(p, po, pi, mode)
				if err != nil {
					t.Fatal(err)
				}
				res, err := New(g, pl, Options{}).Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != want {
					t.Fatalf("%s/%s mode=%s: got %d, want %d", gname, p.Name(), mode.Name(), res.Matches, want)
				}
			}
		}
	}
}

func TestSymmetryBreakingCountsEmbeddings(t *testing.T) {
	// Matches with the partial order × |Aut| = injective homomorphisms.
	g := gen.ErdosRenyi(30, 90, 5)
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.P1(), pattern.P3(), pattern.Cycle(5)} {
		po := pattern.SymmetryBreaking(p)
		homs := bruteCount(p, nil, g)
		aut := uint64(len(p.Automorphisms()))
		pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(g, pl, Options{}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches*aut != homs {
			t.Fatalf("%s: %d matches × %d aut = %d, want %d homs", p.Name(), res.Matches, aut, res.Matches*aut, homs)
		}
	}
}

func TestAllKernelsSameCount(t *testing.T) {
	g := gen.BarabasiAlbert(120, 5, 3)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	var want uint64
	for i, k := range []intersect.Kind{intersect.KindMerge, intersect.KindMergeBlock, intersect.KindGalloping, intersect.KindHybrid, intersect.KindHybridBlock} {
		res, err := New(g, pl, Options{Kernel: k}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Matches
		} else if res.Matches != want {
			t.Fatalf("kernel %v: %d matches, want %d", k, res.Matches, want)
		}
	}
	if want == 0 {
		t.Fatal("degenerate test: zero matches")
	}
}

// acceptAll is a visitor that keeps every match: a run with it walks
// every σ level to the leaves, the paper's engine, where a count-only
// run counts its trailing MATs.
func acceptAll([]graph.VertexID) bool { return true }

// TestTailCountMatchesFaithful is the counted tail's property test: on
// random graphs, clean and behind an overlay, a count-only run must
// report exactly the matches and nodes of the same run with acceptAll.
// P2 ends in a constrained pair, P4 in a free pair and star3 in three
// MATs; random patterns under random orders and modes cover the rest,
// including materialized values inside the last candidate sets.
func TestTailCountMatchesFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	kernels := []intersect.Kind{intersect.KindMerge, intersect.KindHybridBlock, intersect.KindHybridBitmap}
	for trial := 0; trial < 24; trial++ {
		g := gen.ErdosRenyi(25+rng.Intn(25), 60+rng.Intn(120), int64(trial))
		if trial%3 == 0 {
			g = gen.BarabasiAlbert(40+rng.Intn(20), 3, int64(trial))
		}
		g.BuildHubIndex(4)
		var ov *delta.Overlay
		if trial%2 == 1 {
			n := g.NumVertices()
			var add, rem []delta.Edge
			for i := 0; i < 8; i++ {
				add = append(add, delta.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}.Canon())
				v := graph.VertexID(rng.Intn(n))
				if nb := g.Neighbors(v); len(nb) > 0 {
					rem = append(rem, delta.Edge{U: v, V: nb[rng.Intn(len(nb))]}.Canon())
				}
			}
			for i := 0; i < len(add); i++ {
				if add[i].U == add[i].V {
					add = append(add[:i], add[i+1:]...)
					i--
				}
			}
			var err error
			if ov, err = delta.Apply(g, nil, add, rem); err != nil {
				t.Fatal(err)
			}
		}
		// path4 under every order: its ends form a constrained pair
		// whose candidate sets hold the materialized middle vertices,
		// in either order.
		path4 := pattern.Path(4)
		type run struct {
			p  *pattern.Pattern
			pi []pattern.Vertex
		}
		var runs []run
		for _, pi := range plan.ConnectedOrders(path4, pattern.SymmetryBreaking(path4)) {
			runs = append(runs, run{path4, pi})
		}
		for _, p := range []*pattern.Pattern{pattern.P2(), pattern.P4(), pattern.StarPattern(3)} {
			runs = append(runs, run{p, plan.ConnectedOrders(p, pattern.SymmetryBreaking(p))[0]})
		}
		random := pattern.RandomConnected(rng, 4+rng.Intn(3), rng.Intn(4))
		orders := plan.ConnectedOrders(random, pattern.SymmetryBreaking(random))
		runs = append(runs, run{random, orders[rng.Intn(len(orders))]})
		for k, r := range runs {
			p, pi, mode := r.p, r.pi, plan.ModeLIGHT
			if k == len(runs)-1 {
				mode = allModes[rng.Intn(len(allModes))]
			}
			po := pattern.SymmetryBreaking(p)
			pl, err := plan.Compile(p, po, pi, mode)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Kernel: kernels[trial%len(kernels)], Overlay: ov}
			where := fmt.Sprintf("trial %d %v π=%v %s overlay=%v", trial, p, pi, mode.Name(), ov != nil)
			count, err := New(g, pl, opts).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			walk, err := New(g, pl, opts).Run(acceptAll)
			if err != nil {
				t.Fatal(err)
			}
			if count.Matches != walk.Matches || count.Nodes != walk.Nodes {
				t.Fatalf("%s: count-only %d matches / %d nodes, leaf loop %d / %d", where, count.Matches, count.Nodes, walk.Matches, walk.Nodes)
			}
		}
	}
}

func TestLMReducesIntersections(t *testing.T) {
	// The paper's headline effect: on the chordal square, LM performs
	// strictly fewer intersections than SE (up to 95% fewer, §VIII-B1).
	g := gen.BarabasiAlbert(300, 6, 11)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	// The paper's running-example order (u0, u2, u1, u3): u1 and u3 stay
	// free after both anchors are materialized, which is where laziness
	// pays. π = (0,1,2,3) would degenerate to the interleaved σ.
	pi := []pattern.Vertex{0, 2, 1, 3}
	se, _ := plan.Compile(p, po, pi, plan.ModeSE)
	lm, _ := plan.Compile(p, po, pi, plan.ModeLM)
	light, _ := plan.Compile(p, po, pi, plan.ModeLIGHT)
	rSE, err := New(g, se, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rLM, err := New(g, lm, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rLIGHT, err := New(g, light, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rLM.Stats.Intersections >= rSE.Stats.Intersections {
		t.Fatalf("LM intersections %d !< SE %d", rLM.Stats.Intersections, rSE.Stats.Intersections)
	}
	if rLIGHT.Stats.Intersections > rLM.Stats.Intersections {
		t.Fatalf("LIGHT intersections %d > LM %d", rLIGHT.Stats.Intersections, rLM.Stats.Intersections)
	}
	if rSE.Matches != rLM.Matches || rSE.Matches != rLIGHT.Matches {
		t.Fatal("counts diverged")
	}
}

func TestVisitor(t *testing.T) {
	g := gen.Complete(6)
	p := pattern.Triangle()
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	var got [][3]graph.VertexID
	res, err := New(g, pl, Options{}).Run(func(m []graph.VertexID) bool {
		got = append(got, [3]graph.VertexID{m[0], m[1], m[2]})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// C(6,3) = 20 triangles.
	if res.Matches != 20 || len(got) != 20 {
		t.Fatalf("matches = %d, visited = %d, want 20", res.Matches, len(got))
	}
	// Every visited mapping must be a valid triangle with distinct,
	// order-respecting vertices.
	seen := map[[3]graph.VertexID]bool{}
	for _, m := range got {
		if seen[m] {
			t.Fatalf("duplicate mapping %v", m)
		}
		seen[m] = true
		if !(m[0] < m[1] && m[1] < m[2]) {
			t.Fatalf("partial order violated: %v", m)
		}
		if !g.HasEdge(m[0], m[1]) || !g.HasEdge(m[1], m[2]) || !g.HasEdge(m[0], m[2]) {
			t.Fatalf("non-triangle emitted: %v", m)
		}
	}
}

func TestVisitorEarlyStop(t *testing.T) {
	g := gen.Complete(8)
	p := pattern.Triangle()
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	calls := 0
	res, err := New(g, pl, Options{}).Run(func(m []graph.VertexID) bool {
		calls++
		return calls < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || calls != 5 {
		t.Fatalf("stopped=%v calls=%d, want stop after 5", res.Stopped, calls)
	}
}

func TestTimeLimit(t *testing.T) {
	// A large clique query on a big complete graph cannot finish in 1ns.
	g := gen.Complete(120)
	p := pattern.Clique(5)
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	_, err := New(g, pl, Options{TimeLimit: time.Nanosecond}).Run(nil)
	if err != ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}

func TestRunRootsPartition(t *testing.T) {
	// Splitting the root candidates across calls must partition the
	// result exactly.
	g := gen.BarabasiAlbert(100, 4, 13)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	e := New(g, pl, Options{})
	full, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for lo := 0; lo < g.NumVertices(); lo += 17 {
		hi := lo + 17
		if hi > g.NumVertices() {
			hi = g.NumVertices()
		}
		roots := make([]graph.VertexID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			roots = append(roots, graph.VertexID(v))
		}
		res, err := e.RunRoots(roots, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Matches
	}
	if sum != full.Matches {
		t.Fatalf("partitioned sum %d != full %d", sum, full.Matches)
	}
}

func TestCandidateMemoryBytes(t *testing.T) {
	g := gen.BarabasiAlbert(100, 4, 1)
	p := pattern.P5()
	pl, _ := plan.Compile(p, pattern.SymmetryBreaking(p), plan.ConnectedOrders(p, pattern.SymmetryBreaking(p))[0], plan.ModeLIGHT)
	e := New(g, pl, Options{})
	// Buffers are carved lazily from the arena: nothing is held before
	// the first run, and repeated runs reuse the same slabs.
	if got := e.CandidateMemoryBytes(); got != 0 {
		t.Fatalf("CandidateMemoryBytes before any run = %d, want 0", got)
	}
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	after := e.CandidateMemoryBytes()
	if after <= 0 {
		t.Fatalf("CandidateMemoryBytes after run = %d, want > 0", after)
	}
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if again := e.CandidateMemoryBytes(); again != after {
		t.Fatalf("CandidateMemoryBytes grew across runs: %d then %d", after, again)
	}
}

func TestSingleVertexAndEdgePatterns(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 9)
	one := pattern.MustNew("v", 1, nil)
	pl, err := plan.Compile(one, nil, []pattern.Vertex{0}, plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(g, pl, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 20 {
		t.Fatalf("single-vertex matches = %d, want 20", res.Matches)
	}

	edge := pattern.Path(2)
	po := pattern.SymmetryBreaking(edge)
	pl2, _ := plan.Compile(edge, po, plan.ConnectedOrders(edge, po)[0], plan.ModeLIGHT)
	res2, err := New(g, pl2, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matches != uint64(g.NumEdges()) {
		t.Fatalf("edge matches = %d, want M = %d", res2.Matches, g.NumEdges())
	}
}

func TestAGMWorstCase(t *testing.T) {
	// Example III.1: the chordal square on K_√M has Θ(M²) results; check
	// the exact count on a complete graph. On K_n the chordal square with
	// symmetry breaking counts n!/(n-4)! / |Aut| selections.
	g := gen.Complete(12)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	res, err := New(g, pl, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(12 * 11 * 10 * 9 / 4) // |Aut(P2)| = 4
	if res.Matches != want {
		t.Fatalf("K12 chordal squares = %d, want %d", res.Matches, want)
	}
}

func TestDegreeFilterPreservesCounts(t *testing.T) {
	// The degree filter is sound: it may only skip vertices that cannot
	// appear in any match, so counts are unchanged.
	for gname, g := range testGraphs() {
		for _, p := range []*pattern.Pattern{pattern.P2(), pattern.P4(), pattern.StarPattern(3)} {
			po := pattern.SymmetryBreaking(p)
			pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
			plain, err := New(g, pl, Options{}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			filtered, err := New(g, pl, Options{DegreeFilter: true}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Matches != filtered.Matches {
				t.Fatalf("%s/%s: degree filter changed count %d -> %d", gname, p.Name(), plain.Matches, filtered.Matches)
			}
		}
	}
}

func TestCustomFilterRestrictsMatches(t *testing.T) {
	// An even-vertices-only filter: every reported mapping obeys it and
	// the count equals a filtered brute-force run.
	g := gen.ErdosRenyi(30, 120, 4)
	p := pattern.Triangle()
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	e := New(g, pl, Options{})
	e2 := New(g, pl, Options{Filter: func(u int, v graph.VertexID) bool { return v%2 == 0 }})
	all, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Run(func(m []graph.VertexID) bool {
		for _, v := range m {
			if v%2 != 0 {
				t.Fatalf("filter violated: %v", m)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches == 0 || res.Matches >= all.Matches {
		t.Fatalf("filtered %d vs all %d: filter had no effect", res.Matches, all.Matches)
	}
}

func TestAGMGrowthRate(t *testing.T) {
	// Example III.1: on complete graphs the chordal square count grows as
	// M² = Θ(n⁴). Doubling n must multiply the count by ~2⁴.
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	count := func(n int) float64 {
		g := gen.Complete(n)
		pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
		res, err := New(g, pl, Options{}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Matches)
	}
	ratio := count(24) / count(12)
	if ratio < 12 || ratio > 24 { // n⁴ scaling gives ~16 + lower-order terms
		t.Fatalf("K24/K12 ratio = %.1f, want ≈16 (AGM n⁴ growth)", ratio)
	}
}
