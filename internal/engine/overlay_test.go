package engine

import (
	"math/rand"
	"testing"

	"light/internal/delta"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// materialize rebuilds the overlay view as a standalone CSR graph via
// the Builder — the independent reference the overlay path must match.
func materialize(t *testing.T, ov *delta.Overlay) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(ov.NumVertices())
	for v := 0; v < ov.NumVertices(); v++ {
		for _, u := range ov.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < u {
				b.AddEdge(graph.VertexID(v), u)
			}
		}
	}
	return b.Build()
}

// TestOverlayMatchesMaterialized runs every kernel (bitmap kernels
// included) over overlay views of several generated graphs and checks
// the counts against a from-scratch rebuild of the same adjacency. The
// rebuild keeps identical vertex IDs (Builder, no reorder), so the two
// runs walk the same symmetry-broken search tree and must agree exactly.
// The graphs are indexed at τ = 4, far below the auto floor, so the
// batches touch indexed hubs and the bitmap kernels probe the bitmaps
// the overlay rebuilt for them.
func TestOverlayMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(60, 3, 1)},
		{"er", gen.ErdosRenyi(50, 120, 2)},
		{"grid", gen.Grid(5, 6)},
	}
	pats := []*pattern.Pattern{
		mustPattern(t, "triangle", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}),
		mustPattern(t, "path3", 3, [][2]int{{0, 1}, {1, 2}}),
		mustPattern(t, "square", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
	}
	kernels := []intersect.Kind{
		intersect.KindMerge, intersect.KindHybridBlock,
		intersect.KindHybridBitmap,
	}
	for _, c := range graphs {
		name, g := c.name, c.g
		g.BuildHubIndex(4)
		n := g.NumVertices()
		// A few rounds of random mutation, stacking overlays.
		var ov *delta.Overlay
		touchedHub := false
		probes := map[intersect.Kind]uint64{}
		for round := 0; round < 3; round++ {
			var add, rem []delta.Edge
			for i := 0; i < 6; i++ {
				e := delta.Edge{
					U: graph.VertexID(rng.Intn(n + 2)),
					V: graph.VertexID(rng.Intn(n + 2)),
				}.Canon()
				if e.U == e.V {
					continue
				}
				if rng.Intn(2) == 0 {
					add = append(add, e)
				} else {
					rem = append(rem, e)
				}
			}
			next, err := delta.Apply(g, ov, add, rem)
			if err != nil {
				t.Fatal(err)
			}
			ov = next
			if ov == nil {
				continue
			}
			for v := 0; v < n; v++ {
				if bm := ov.HubBitmap(graph.VertexID(v)); bm != nil && bm != g.HubBitmap(graph.VertexID(v)) {
					touchedHub = true
				}
			}
			ref := materialize(t, ov)
			for _, p := range pats {
				po := pattern.SymmetryBreaking(p)
				pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range kernels {
					want, err := New(ref, pl, Options{Kernel: k}).Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := New(g, pl, Options{Kernel: k, Overlay: ov}).Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Matches != want.Matches {
						t.Errorf("%s/%s/%s round %d: overlay %d matches, materialized %d",
							name, p.Name(), k, round, got.Matches, want.Matches)
					}
					probes[k] += got.Stats.BitmapProbes
					// The leaf loop must agree too.
					walk, err := New(g, pl, Options{Kernel: k, Overlay: ov}).Run(acceptAll)
					if err != nil {
						t.Fatal(err)
					}
					if walk.Matches != want.Matches {
						t.Errorf("%s/%s/%s round %d: overlay leaf loop %d, want %d",
							name, p.Name(), k, round, walk.Matches, want.Matches)
					}
				}
			}
		}
		if !touchedHub {
			t.Errorf("%s: no batch touched an indexed hub", name)
		}
		for _, k := range []intersect.Kind{intersect.KindHybridBitmap} {
			if probes[k] == 0 {
				t.Errorf("%s/%s: no overlay round probed a bitmap", name, k)
			}
		}
	}
}

// TestOverlayEmptyDeltaIsNoOpView checks that an overlay carrying no
// effective changes is never even constructed (Apply returns prev), and
// that an enumerator with a nil overlay equals the plain path.
func TestOverlayEmptyDeltaIsNoOpView(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 3)
	ov, err := delta.Apply(g, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ov != nil {
		t.Fatalf("empty Apply returned overlay %v", ov)
	}
}

// TestOverlayForeignBasePanics pins the guard in New: an overlay built
// over a different base graph is a programming error.
func TestOverlayForeignBasePanics(t *testing.T) {
	g1 := gen.Grid(3, 3)
	g2 := gen.Grid(3, 3)
	ov, err := delta.Apply(g2, nil, []delta.Edge{{U: 0, V: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ov == nil {
		t.Skip("edge already present in grid")
	}
	p := mustPattern(t, "edge", 2, [][2]int{{0, 1}})
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an overlay with a foreign base")
		}
	}()
	New(g1, pl, Options{Overlay: ov})
}

func mustPattern(t *testing.T, name string, n int, edges [][2]int) *pattern.Pattern {
	t.Helper()
	es := make([][2]pattern.Vertex, len(edges))
	for i, e := range edges {
		es[i] = [2]pattern.Vertex{e[0], e[1]}
	}
	p, err := pattern.New(name, n, es)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
