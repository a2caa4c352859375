package engine

import (
	"reflect"
	"testing"

	"light/internal/arena"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// compile builds a LIGHT plan for p with symmetry breaking, failing the
// test on compile errors.
func compile(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// markedPlan returns the LIGHT plan of p's first connected order that
// has an operand to mark, with every such operand marked.
func markedPlan(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	for _, pi := range plan.ConnectedOrders(p, po) {
		pl, err := plan.Compile(p, po, pi, plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		if mpl := pl.MarkAll(); mpl != nil {
			return mpl
		}
	}
	t.Fatalf("%s: no order has an operand to mark", p.Name())
	return nil
}

// TestMarksAcrossRuns reuses one Enumerator for RunRoots over two
// disjoint root sets. Its marks outlive the first call: the second
// takes no new words for them (the arena's footprint stays put, where a
// per-run carve would clear |V|/64 + 1 words for every chunk or
// anchor) and starts from the bits the first left set. It must still do
// exactly the work a fresh Enumerator does on those roots, and find the
// matches and nodes of the same plan without marks. One indexed hub
// keeps the bitmap kernel on; every other φ(w) is served by a mark.
func TestMarksAcrossRuns(t *testing.T) {
	g := gen.BarabasiAlbert(400, 5, 9)
	g.BuildHubIndex(g.MaxDegree())
	n := g.NumVertices()
	roots := func(lo, hi int) []graph.VertexID {
		vs := make([]graph.VertexID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			vs = append(vs, graph.VertexID(v))
		}
		return vs
	}
	opts := Options{Kernel: intersect.KindHybridBitmap}
	for _, p := range []*pattern.Pattern{pattern.P1(), pattern.P4()} {
		mpl := markedPlan(t, p)
		e := New(g, mpl, opts)
		if _, err := e.RunRoots(roots(0, n/2), nil); err != nil {
			t.Fatal(err)
		}
		carved := e.CandidateMemoryBytes()
		got, err := e.RunRoots(roots(n/2, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.CandidateMemoryBytes() != carved {
			t.Fatalf("%s: the second run grew the arena from %d to %d bytes; marks were taken again", p.Name(), carved, e.CandidateMemoryBytes())
		}
		fresh, err := New(g, mpl, opts).RunRoots(roots(n/2, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: reused enumerator %+v, fresh one %+v", p.Name(), got, fresh)
		}
		unmarked, err := plan.Compile(p, mpl.PO, mpl.Pi, plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := New(g, unmarked, opts).RunRoots(roots(n/2, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matches != plain.Matches || got.Nodes != plain.Nodes || got.Comps != plain.Comps {
			t.Fatalf("%s: marked matches/nodes/comps %d/%d/%d, unmarked %d/%d/%d",
				p.Name(), got.Matches, got.Nodes, got.Comps, plain.Matches, plain.Nodes, plain.Comps)
		}
		if got.Stats == plain.Stats {
			t.Fatalf("%s: marked run did the unmarked run's work %+v; no mark ran", p.Name(), got.Stats)
		}
	}
}

// TestBitmapKernelMatchesList runs the bitmap kernels against their list
// fallbacks on hub-rich graphs: identical match and node counts, and on
// a graph with hubs the bitmap kernel must actually probe.
func TestBitmapKernelMatchesList(t *testing.T) {
	cases := []struct {
		name string
		p    *pattern.Pattern
	}{
		{"triangle", pattern.Triangle()},
		{"4clique", pattern.P3()},
		{"p5", pattern.P5()},
	}
	g := gen.StarChords(300, 900, 7)
	// Force a small τ so the star center (and chord-heavy leaves) carry
	// bitmaps even on this small test graph.
	g.BuildHubIndex(8)
	if g.NumHubs() == 0 {
		t.Fatal("test graph has no hubs; bitmap path not exercised")
	}
	for _, c := range cases {
		pl := compile(t, c.p)
		base, err := New(g, pl, Options{Kernel: intersect.KindHybridBlock}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []intersect.Kind{intersect.KindHybridBitmap} {
			res, err := New(g, pl, Options{Kernel: k}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != base.Matches || res.Nodes != base.Nodes || res.Comps != base.Comps {
				t.Fatalf("%s/%v: matches/nodes/comps %d/%d/%d, list kernel %d/%d/%d",
					c.name, k, res.Matches, res.Nodes, res.Comps, base.Matches, base.Nodes, base.Comps)
			}
			if base.Stats.BitmapProbes != 0 {
				t.Fatalf("%s: list kernel recorded %d bitmap probes", c.name, base.Stats.BitmapProbes)
			}
			// Patterns with multi-operand COMPs must hit the hub index.
			if c.p.NumVertices() >= 4 && res.Stats.BitmapProbes == 0 {
				t.Fatalf("%s/%v: no bitmap probes on a hub-rich graph", c.name, k)
			}
		}
	}
}

// TestBitmapKernelNoHubIndex pins where the strategy is decided: New
// resolves a bitmap kernel to the list path outright when the graph's
// index holds no hub (dropped, or nothing above the threshold), so such
// a run does exactly the list kernel's work; with a hub it probes.
func TestBitmapKernelNoHubIndex(t *testing.T) {
	dropped := gen.BarabasiAlbert(150, 5, 3)
	dropped.BuildHubIndex(-1)
	hubbed := gen.BarabasiAlbert(150, 5, 3)
	hubbed.BuildHubIndex(8)
	pl := compile(t, pattern.P3())
	for _, c := range []struct {
		name string
		g    *graph.Graph
		hubs bool
	}{
		{"dropped index", dropped, false},
		{"erdos-renyi", gen.ErdosRenyi(300, 1200, 7), false},
		{"grid", gen.Grid(14, 14), false},
		{"hubs", hubbed, true},
	} {
		e := New(c.g, pl, Options{Kernel: intersect.KindHybridBitmap})
		if e.useBitmaps != c.hubs {
			t.Fatalf("%s: New resolved useBitmaps=%v on a graph with %d hubs", c.name, e.useBitmaps, c.g.NumHubs())
		}
		res, err := e.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		base, err := New(c.g, pl, Options{Kernel: intersect.KindHybridBlock}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != base.Matches {
			t.Fatalf("%s: matches %d, list kernel %d", c.name, res.Matches, base.Matches)
		}
		if !c.hubs && res.Stats != base.Stats {
			t.Fatalf("%s: hub-free run's work %+v differs from the list kernel's %+v", c.name, res.Stats, base.Stats)
		}
		if c.hubs && res.Stats.BitmapProbes == 0 {
			t.Fatalf("%s: no bitmap probes", c.name)
		}
	}
}

// TestSteadyStateZeroAllocs pins the arena contract: after the first run
// warms the slabs, whole enumeration runs allocate nothing — for the
// list kernels and the bitmap kernels alike, marks included.
func TestSteadyStateZeroAllocs(t *testing.T) {
	g := gen.StarChords(120, 360, 11)
	g.BuildHubIndex(8)
	for _, pl := range []*plan.Plan{compile(t, pattern.P5()), markedPlan(t, pattern.P4())} {
		for _, k := range []intersect.Kind{intersect.KindHybridBlock, intersect.KindHybridBitmap} {
			e := New(g, pl, Options{Kernel: k})
			if _, err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(3, func() {
				if _, err := e.Run(nil); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%s, kernel %v: %v allocations per steady-state run, want 0", pl.Pattern.Name(), k, n)
			}
		}
	}
}

// TestSharedArenaAcrossEnumerators pins the per-worker reuse pattern the
// parallel scheduler relies on: two enumerators built on one arena (run
// sequentially) share slabs, and the footprint does not grow with the
// number of enumerators.
func TestSharedArenaAcrossEnumerators(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 5)
	pl := compile(t, pattern.Triangle())
	ar := arena.New()
	opts := Options{Kernel: intersect.KindHybridBlock, Arena: ar}
	e1 := New(g, pl, opts)
	r1, err := e1.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	after1 := ar.Bytes()
	e2 := New(g, pl, opts)
	r2, err := e2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Matches != r2.Matches {
		t.Fatalf("shared-arena runs disagree: %d vs %d", r1.Matches, r2.Matches)
	}
	if ar.Bytes() != after1 {
		t.Fatalf("arena grew across enumerators: %d then %d", after1, ar.Bytes())
	}
	if e1.CandidateMemoryBytes() != e2.CandidateMemoryBytes() {
		t.Fatal("enumerators on one arena report different footprints")
	}
}
