package engine

import (
	"testing"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestTailCountDegreeFilterEquality promotes two soundness properties
// from scattered spot checks to a deterministic sweep over the full
// pattern catalog on seeded graphs:
//
//   - A count-only run must match a run with a visitor, which walks
//     every level to the leaves, in matches and in nodes. The count-only
//     run counts σ's trailing MATs instead of looping, which is only
//     sound because their candidates already passed every COMP, and
//     only comparable because it still counts the nodes the walk
//     expands.
//   - DegreeFilter on/off must not change the match count. The filter
//     d_G(v) >= d_P(u) is sound for subgraph (not induced) matching:
//     any data vertex in a match has at least the pattern vertex's
//     degree.
//
// Both properties are checked per kernel, because the counted tail
// runs its own intersections and DegreeFilter changes which candidate
// sets the kernels see.
func TestTailCountDegreeFilterEquality(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(80, 240, 7)},
		{"ba", gen.BarabasiAlbert(150, 3, 9)},
		{"starchords", gen.StarChords(40, 60, 5)},
		{"ties", gen.DegreeTies(5, 6, 3)},
	}
	// Small τ so these small graphs carry indexed hubs and the bitmap
	// kernels exercise the probe path, not just the list fallback.
	for _, tg := range graphs {
		tg.g.BuildHubIndex(3)
	}
	kernels := []intersect.Kind{
		intersect.KindMerge, intersect.KindHybrid,
		intersect.KindHybridBitmap,
	}
	for _, tg := range graphs {
		for _, p := range pattern.Catalog() {
			po := pattern.SymmetryBreaking(p)
			pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				base, err := New(tg.g, pl, Options{Kernel: k}).Run(acceptAll)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, p.Name(), err)
				}
				for _, df := range []bool{false, true} {
					opts := Options{Kernel: k, DegreeFilter: df}
					walk, err := New(tg.g, pl, opts).Run(acceptAll)
					if err != nil {
						t.Fatalf("%s/%s df=%v: %v", tg.name, p.Name(), df, err)
					}
					count, err := New(tg.g, pl, opts).Run(nil)
					if err != nil {
						t.Fatalf("%s/%s df=%v: %v", tg.name, p.Name(), df, err)
					}
					if walk.Matches != base.Matches || count.Matches != base.Matches {
						t.Errorf("%s/%s kernel=%d df=%v: %d matches walked, %d counted, want %d",
							tg.name, p.Name(), k, df, walk.Matches, count.Matches, base.Matches)
					}
					if count.Nodes != walk.Nodes {
						t.Errorf("%s/%s kernel=%d df=%v: %d nodes counted, %d walked",
							tg.name, p.Name(), k, df, count.Nodes, walk.Nodes)
					}
				}
			}
		}
	}
}

// TestTailCountNodeAccounting pins the counted tail's side contract: a
// count-only run still counts every node the leaf loop expands (the
// batch adds n, not 1), so metrics stay comparable with runs that walk
// to the leaves (visitors, Filter, lanes).
func TestTailCountNodeAccounting(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 13)
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		walk, err := New(g, pl, Options{}).Run(acceptAll)
		if err != nil {
			t.Fatal(err)
		}
		count, err := New(g, pl, Options{}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if count.Nodes != walk.Nodes {
			t.Errorf("%s: the counted tail changed node accounting: %d vs %d", p.Name(), count.Nodes, walk.Nodes)
		}
	}
}
