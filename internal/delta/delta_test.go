package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"light/internal/bitset"
	"light/internal/gen"
	"light/internal/graph"
)

// buildGraph makes a CSR graph from an edge list over n vertices.
func buildGraph(t *testing.T, n int, edges []Edge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// edgeSet flattens a view (base plus optional overlay) into a canonical
// edge set for comparison.
func edgeSet(base *graph.Graph, ov *Overlay) map[Edge]bool {
	out := map[Edge]bool{}
	w := NewView(base, ov)
	for v := 0; v < w.NumVertices(); v++ {
		for _, u := range w.Neighbors(graph.VertexID(v)) {
			out[Edge{graph.VertexID(v), u}.Canon()] = true
		}
	}
	return out
}

func TestApplyBasic(t *testing.T) {
	// Path 0-1-2 plus isolated 3, with every non-isolated vertex an
	// indexed hub (τ = 1).
	g := buildGraph(t, 4, []Edge{{0, 1}, {1, 2}})
	g.BuildHubIndex(1)
	o, err := Apply(g, nil, []Edge{{2, 3}, {0, 2}}, []Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.NumEdges(), int64(3); got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if o.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", o.NumVertices())
	}
	checks := []struct {
		u, v graph.VertexID
		want bool
	}{
		{0, 1, false}, {1, 2, true}, {2, 3, true}, {0, 2, true}, {1, 3, false},
	}
	for _, c := range checks {
		if got := o.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	if got := o.Neighbors(1); !reflect.DeepEqual(got, []graph.VertexID{2}) {
		t.Errorf("Neighbors(1) = %v, want [2]", got)
	}
	if o.DeltaEdges() != 3 {
		t.Errorf("DeltaEdges = %d, want 3", o.DeltaEdges())
	}
	if got := o.Neighbors(3); !reflect.DeepEqual(got, []graph.VertexID{2}) {
		t.Errorf("Neighbors(3) = %v, want [2]", got)
	}
	if got := o.Neighbors(2); !reflect.DeepEqual(got, []graph.VertexID{0, 1, 3}) {
		t.Errorf("Neighbors(2) = %v, want [0 1 3]", got)
	}
	// A touched hub's bitmap is its merged list; 3, which the base does
	// not index, gets none even once the overlay gives it a neighbour.
	for v, want := range map[graph.VertexID][]graph.VertexID{0: {2}, 1: {2}, 2: {0, 1, 3}} {
		bm := o.HubBitmap(v)
		if bm == nil || bm.Ones() != len(want) {
			t.Fatalf("HubBitmap(%d) = %v, want the bitmap of %v", v, bm, want)
		}
		for _, u := range want {
			if !bm.Contains(u) {
				t.Errorf("HubBitmap(%d) lacks %d", v, u)
			}
		}
	}
	if o.HubBitmap(3) != nil {
		t.Error("HubBitmap(3): the base indexes no bitmap for 3, so the overlay must not either")
	}
}

func TestApplyNoOpSharesPrev(t *testing.T) {
	g := buildGraph(t, 3, []Edge{{0, 1}})
	// Inserting an existing edge and deleting an absent one is a no-op.
	o, err := Apply(g, nil, []Edge{{1, 0}}, []Edge{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Fatalf("no-op Apply over a clean base returned %v, want nil", o)
	}
	o1, err := Apply(g, nil, []Edge{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Apply(g, o1, []Edge{{2, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o1 {
		t.Fatal("no-op Apply over an overlay must return the same overlay")
	}
}

func TestApplyDeleteWinsWithinBatch(t *testing.T) {
	g := buildGraph(t, 3, []Edge{{0, 1}})
	o, err := Apply(g, nil, []Edge{{1, 2}}, []Edge{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if o != nil && o.HasEdge(1, 2) {
		t.Fatal("edge both inserted and deleted in one batch must not exist")
	}
}

func TestApplyCopyOnWriteIsolation(t *testing.T) {
	g := buildGraph(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	o1, err := Apply(g, nil, []Edge{{0, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := edgeSet(g, o1)
	n1 := append([]graph.VertexID(nil), o1.Neighbors(0)...)
	o2, err := Apply(g, o1, []Edge{{0, 2}}, []Edge{{0, 3}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// o1's view must be untouched by the second Apply.
	if got := edgeSet(g, o1); !reflect.DeepEqual(got, before) {
		t.Fatalf("prev overlay mutated: %v -> %v", before, got)
	}
	if got := o1.Neighbors(0); !reflect.DeepEqual(got, n1) {
		t.Fatalf("prev overlay Neighbors(0) mutated: %v -> %v", n1, got)
	}
	if o2.HasEdge(0, 3) || !o2.HasEdge(0, 2) || o2.HasEdge(1, 2) {
		t.Fatal("second overlay has wrong view")
	}
	// Cumulative sets: base had {01,12,23}; view2 is {01,23,02}.
	if want := []Edge{{0, 2}}; !reflect.DeepEqual(o2.Added(), want) {
		t.Errorf("Added = %v, want %v", o2.Added(), want)
	}
	if want := []Edge{{1, 2}}; !reflect.DeepEqual(o2.Removed(), want) {
		t.Errorf("Removed = %v, want %v", o2.Removed(), want)
	}
}

func TestApplyRejectsForeignOverlay(t *testing.T) {
	g1 := buildGraph(t, 3, []Edge{{0, 1}})
	g2 := buildGraph(t, 3, []Edge{{0, 2}})
	o, err := Apply(g1, nil, []Edge{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(g2, o, []Edge{{0, 1}}, nil); err == nil {
		t.Fatal("Apply accepted an overlay built over a different base")
	}
}

func TestFingerprintDistinguishesDeltas(t *testing.T) {
	g := buildGraph(t, 4, []Edge{{0, 1}, {1, 2}})
	o1, _ := Apply(g, nil, []Edge{{2, 3}}, nil)
	o2, _ := Apply(g, nil, []Edge{{0, 3}}, nil)
	o3, _ := Apply(g, nil, nil, []Edge{{0, 1}})
	fps := map[uint64]string{g.Fingerprint(): "base"}
	for name, o := range map[string]*Overlay{"o1": o1, "o2": o2, "o3": o3} {
		fp := o.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Fatalf("fingerprint collision between %s and %s", prev, name)
		}
		fps[fp] = name
	}
	// Same deltas → same fingerprint.
	o1b, _ := Apply(g, nil, []Edge{{3, 2}}, nil)
	if o1.Fingerprint() != o1b.Fingerprint() {
		t.Fatal("identical deltas must fingerprint identically")
	}
}

// TestCompactEquivalence checks every View read against the CSR that
// Compact folds the view into: a clean base (its own compaction), then
// every generation of a random batch sequence that grows the vertex
// count. Ids must be stable — identical adjacency, not merely
// isomorphic — and ids at or past NumVertices must read as absent on
// both sides of a compaction, which is what Diff's sweep relies on.
func TestCompactEquivalence(t *testing.T) {
	g := buildGraph(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	o, err := Apply(g, nil, []Edge{{0, 2}, {1, 6}}, []Edge{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := Compact(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	checkViewAgainstCSR(t, "fixed", NewView(g, o), cg)
	if cg.Fingerprint() == g.Fingerprint() {
		t.Fatal("compaction of a non-empty overlay must change the fingerprint")
	}

	hubs := gen.BarabasiAlbert(60, 3, 5)
	hubs.BuildHubIndex(4)
	checkViewAgainstCSR(t, "nil overlay", NewView(hubs, nil), hubs)
	rng := rand.New(rand.NewSource(11))
	prev := NewView(hubs, nil)
	for step := 0; step < 12; step++ {
		n := prev.NumVertices()
		var add, rem []Edge
		for i := 0; i < 1+rng.Intn(6); i++ {
			u := graph.VertexID(rng.Intn(n))
			if rng.Intn(3) == 0 {
				if ns := prev.Neighbors(u); len(ns) > 0 {
					rem = append(rem, Edge{u, ns[rng.Intn(len(ns))]})
				}
				continue
			}
			add = append(add, Edge{u, graph.VertexID(rng.Intn(n + 3))})
		}
		ov, err := Apply(hubs, prev.Overlay(), add, rem)
		if err != nil {
			t.Fatal(err)
		}
		if ov == nil || ov == prev.Overlay() {
			continue
		}
		w := NewView(hubs, ov)
		cg, err := Compact(ov)
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("step %d", step)
		checkViewAgainstCSR(t, where, w, cg)
		// Diff from the previous generation: the same-base path, then
		// across the compaction both ways, where the grown ids lie past
		// the previous view's end.
		add, rem = Diff(prev, w)
		if a, r := Diff(prev, NewView(cg, nil)); !reflect.DeepEqual(a, add) || !reflect.DeepEqual(r, rem) {
			t.Fatalf("%s: cross-compaction Diff (%v, %v), same-base (%v, %v)", where, a, r, add, rem)
		}
		if a, r := Diff(NewView(cg, nil), prev); !reflect.DeepEqual(a, rem) || !reflect.DeepEqual(r, add) {
			t.Fatalf("%s: reversed cross-compaction Diff (%v, %v), want (%v, %v)", where, a, r, rem, add)
		}
		prev = w
	}
	if prev.NumVertices() <= hubs.NumVertices() {
		t.Fatalf("the batch sequence never grew the vertex count past %d", hubs.NumVertices())
	}
}

// checkViewAgainstCSR asserts that every read of w agrees with cg, the
// CSR holding w's adjacency, and that HubBitmap follows the overlay's
// rule: a vertex has a bitmap exactly when the base index holds one for
// it and its list is non-empty, and the bitmap holds exactly that list.
func checkViewAgainstCSR(t *testing.T, where string, w View, cg *graph.Graph) {
	t.Helper()
	base, ov, c := w.Base(), w.Overlay(), NewView(cg, nil)
	n := w.NumVertices()
	if n != cg.NumVertices() || w.NumEdges() != cg.NumEdges() {
		t.Fatalf("%s: view N=%d M=%d, CSR N=%d M=%d", where, n, w.NumEdges(), cg.NumVertices(), cg.NumEdges())
	}
	if d := w.MaxDegree(); d < cg.MaxDegree() || (ov == nil && d != cg.MaxDegree()) {
		t.Fatalf("%s: MaxDegree %d, CSR %d", where, d, cg.MaxDegree())
	}
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		ns := w.Neighbors(id)
		if want := cg.Neighbors(id); w.Degree(id) != len(want) || (len(ns)+len(want) > 0 && !reflect.DeepEqual(ns, want)) {
			t.Fatalf("%s: vertex %d: degree %d, list %v; CSR %v", where, v, w.Degree(id), ns, want)
		}
		bm := w.HubBitmap(id)
		if want := v < base.NumVertices() && base.HubBitmap(id) != nil && len(ns) > 0; (bm != nil) != want {
			t.Fatalf("%s: HubBitmap(%d) present = %v, want %v", where, v, bm != nil, want)
		}
		if bm != nil && bm.Ones() != len(ns) {
			t.Fatalf("%s: HubBitmap(%d) has %d ones, list %v", where, v, bm.Ones(), ns)
		}
		for _, u := range ns {
			if bm != nil && !bm.Contains(u) {
				t.Fatalf("%s: HubBitmap(%d) lacks %d", where, v, u)
			}
		}
	}
	for u := 0; u < n+2; u++ {
		for v := 0; v < n+2; v++ {
			x, y := graph.VertexID(u), graph.VertexID(v)
			want := u < n && v < n && cg.HasEdge(x, y)
			if w.HasEdge(x, y) != want || c.HasEdge(x, y) != want {
				t.Fatalf("%s: HasEdge(%d, %d): view %v, compacted view %v, want %v", where, u, v, w.HasEdge(x, y), c.HasEdge(x, y), want)
			}
		}
	}
	wantFP, wantDelta, wantMem := base.Fingerprint(), 0, base.MemoryBytes()
	if ov != nil {
		wantFP, wantDelta, wantMem = ov.Fingerprint(), len(ov.Added())+len(ov.Removed()), wantMem+ov.MemoryBytes()
		if wantFP == cg.Fingerprint() {
			t.Fatalf("%s: an overlay and its compaction share fingerprint %#x", where, wantFP)
		}
	}
	if w.Fingerprint() != wantFP || w.DeltaEdges() != wantDelta || w.MemoryBytes() != wantMem {
		t.Fatalf("%s: Fingerprint %#x DeltaEdges %d MemoryBytes %d, want %#x %d %d",
			where, w.Fingerprint(), w.DeltaEdges(), w.MemoryBytes(), wantFP, wantDelta, wantMem)
	}
	if c.DeltaEdges() != 0 || c.Fingerprint() != cg.Fingerprint() || c.MemoryBytes() != cg.MemoryBytes() {
		t.Fatalf("%s: the compacted view does not read as its CSR", where)
	}
}

func TestDiffSameBaseAndAcrossCompaction(t *testing.T) {
	g := buildGraph(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	o1, _ := Apply(g, nil, []Edge{{0, 2}}, []Edge{{2, 3}})
	o2, _ := Apply(g, o1, []Edge{{2, 3}, {0, 3}}, []Edge{{0, 1}})

	add, rem := Diff(NewView(g, nil), NewView(g, o1))
	if want := []Edge{{0, 2}}; !reflect.DeepEqual(add, want) {
		t.Errorf("add = %v, want %v", add, want)
	}
	if want := []Edge{{2, 3}}; !reflect.DeepEqual(rem, want) {
		t.Errorf("rem = %v, want %v", rem, want)
	}

	add, rem = Diff(NewView(g, o1), NewView(g, o2))
	if want := []Edge{{0, 3}, {2, 3}}; !reflect.DeepEqual(add, want) {
		t.Errorf("o1->o2 add = %v, want %v", add, want)
	}
	if want := []Edge{{0, 1}}; !reflect.DeepEqual(rem, want) {
		t.Errorf("o1->o2 rem = %v, want %v", rem, want)
	}

	// Across compaction: diff from the o1 view to the compacted o2 view
	// must agree with the same-base diff.
	cg, err := Compact(o2)
	if err != nil {
		t.Fatal(err)
	}
	addX, remX := Diff(NewView(g, o1), NewView(cg, nil))
	if !reflect.DeepEqual(addX, add) || !reflect.DeepEqual(remX, rem) {
		t.Errorf("cross-compaction diff (%v, %v), want (%v, %v)", addX, remX, add, rem)
	}
}

// TestApplyMatchesBuilderReference drives random batches through Apply
// and checks the overlay view, edge counts, cumulative sets, and
// compaction against a from-scratch Builder rebuild of the same edge
// set.
func TestApplyMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(12)
		// Random base.
		var base []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					base = append(base, Edge{graph.VertexID(u), graph.VertexID(v)})
				}
			}
		}
		g := buildGraph(t, n, base)
		want := edgeSet(g, nil)

		var ov *Overlay
		for round := 0; round < 4; round++ {
			var add, rem []Edge
			for i := 0; i < 1+rng.Intn(5); i++ {
				e := Edge{graph.VertexID(rng.Intn(n + 2)), graph.VertexID(rng.Intn(n + 2))}.Canon()
				if e.U == e.V {
					continue
				}
				if rng.Intn(2) == 0 {
					add = append(add, e)
					delete(want, e) // placeholder; fixed below
					want[e] = true
				} else {
					rem = append(rem, e)
					delete(want, e)
				}
			}
			// Deletions win within a batch.
			for _, e := range rem {
				delete(want, e)
			}
			next, err := Apply(g, ov, add, rem)
			if err != nil {
				t.Fatal(err)
			}
			ov = next
			got := edgeSet(g, ov)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d round %d: view %v, want %v (add %v rem %v)",
					trial, round, got, want, add, rem)
			}
			if ov != nil {
				if int64(len(got)) != ov.NumEdges() {
					t.Fatalf("NumEdges = %d, view has %d", ov.NumEdges(), len(got))
				}
				// Cumulative sets replay onto the base exactly.
				replay := edgeSet(g, nil)
				for _, e := range ov.Added() {
					replay[e] = true
				}
				for _, e := range ov.Removed() {
					delete(replay, e)
				}
				if !reflect.DeepEqual(replay, got) {
					t.Fatalf("cumulative replay %v, view %v", replay, got)
				}
				// Max-degree bound holds for every vertex.
				for v := 0; v < ov.NumVertices(); v++ {
					if d := ov.Degree(graph.VertexID(v)); d > ov.MaxDegree() {
						t.Fatalf("Degree(%d)=%d exceeds MaxDegree bound %d", v, d, ov.MaxDegree())
					}
				}
			}
		}
		if ov != nil {
			cg, err := Compact(ov)
			if err != nil {
				t.Fatal(err)
			}
			if got := edgeSet(cg, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: compacted view %v, want %v", trial, got, want)
			}
		}
	}
}

func TestFromCSRRejectsCorruptInput(t *testing.T) {
	// Asymmetric edge: 0->1 without 1->0.
	if _, err := graph.FromCSR([]int64{0, 1, 1}, []graph.VertexID{1}); err == nil {
		t.Fatal("FromCSR accepted an asymmetric edge")
	}
	// Non-monotone offsets.
	if _, err := graph.FromCSR([]int64{0, 2, 1}, []graph.VertexID{1, 1}); err == nil {
		t.Fatal("FromCSR accepted non-monotone offsets")
	}
}

// TestOverlayHubBitmapsMatchLists drives random Apply chains (adds,
// removes, growth past the base vertex count) over a BA graph indexed
// at a small τ and checks after every step that each bitmap the overlay
// reports is exactly its vertex's list, that every touched base hub with
// a non-empty list has one, and that the previous overlay's bitmaps are
// unchanged (copy-on-write).
func TestOverlayHubBitmapsMatchLists(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.BarabasiAlbert(200, 3, seed)
		g.BuildHubIndex(4)
		baseN := g.NumVertices()
		var hubs []graph.VertexID
		for v := 0; v < baseN; v++ {
			if g.HubBitmap(graph.VertexID(v)) != nil {
				hubs = append(hubs, graph.VertexID(v))
			}
		}
		if len(hubs) == 0 {
			t.Fatal("BuildHubIndex(4) indexed no hub")
		}
		rng := rand.New(rand.NewSource(seed))
		var ov *Overlay
		for step := 0; step < 40; step++ {
			n := NewView(g, ov).NumVertices()
			var add, rem []Edge
			for i := 0; i < 1+rng.Intn(8); i++ {
				h := hubs[rng.Intn(len(hubs))]
				switch rng.Intn(3) {
				case 0: // hub to a random vertex, sometimes past the end
					add = append(add, Edge{h, graph.VertexID(rng.Intn(n + 4))})
				case 1: // drop one of the hub's current edges
					if ns := NewView(g, ov).Neighbors(h); len(ns) > 0 {
						rem = append(rem, Edge{h, ns[rng.Intn(len(ns))]})
					}
				default: // an edge between two arbitrary vertices
					add = append(add, Edge{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))})
				}
			}
			prev, prevMaps := ov, bitmapsOf(ov)
			next, err := Apply(g, ov, add, rem)
			if err != nil {
				t.Fatal(err)
			}
			if next == nil {
				continue
			}
			ov = next
			checkHubBitmaps(t, g, ov)
			if prev != nil {
				for v, bm := range prevMaps {
					if got := prev.HubBitmap(v); got != bm {
						t.Fatalf("seed %d step %d: prev HubBitmap(%d) changed by Apply", seed, step, v)
					}
				}
				checkHubBitmaps(t, g, prev)
			}
		}
	}
}

// bitmapsOf records every bitmap ov reports, by vertex.
func bitmapsOf(ov *Overlay) map[graph.VertexID]*bitset.Bitmap {
	out := map[graph.VertexID]*bitset.Bitmap{}
	if ov == nil {
		return out
	}
	for v := 0; v < ov.NumVertices(); v++ {
		if bm := ov.HubBitmap(graph.VertexID(v)); bm != nil {
			out[graph.VertexID(v)] = bm
		}
	}
	return out
}

// checkHubBitmaps asserts ov's bitmap rule for every vertex: a reported
// bitmap holds exactly Neighbors(v) among ids up to past the view's end,
// and a touched base hub with a non-empty list has one.
func checkHubBitmaps(t *testing.T, g *graph.Graph, ov *Overlay) {
	t.Helper()
	n := ov.NumVertices()
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		ns := ov.Neighbors(id)
		bm := ov.HubBitmap(id)
		if _, touched := ov.lists[id]; touched && v < g.NumVertices() && g.HubBitmap(id) != nil && len(ns) > 0 && bm == nil {
			t.Fatalf("touched base hub %d (degree %d) has no bitmap", v, len(ns))
		}
		if bm == nil {
			continue
		}
		if bm.Ones() != len(ns) {
			t.Fatalf("HubBitmap(%d).Ones() = %d, Neighbors has %d", v, bm.Ones(), len(ns))
		}
		for w := 0; w < n+8; w++ {
			i := sort.Search(len(ns), func(i int) bool { return ns[i] >= graph.VertexID(w) })
			want := i < len(ns) && ns[i] == graph.VertexID(w)
			if got := bm.Contains(graph.VertexID(w)); got != want {
				t.Fatalf("HubBitmap(%d).Contains(%d) = %v, Neighbors says %v", v, w, got, want)
			}
		}
	}
}
