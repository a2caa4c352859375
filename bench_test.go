// Ablation benchmarks: design choices the paper fixes or does not have
// (cover solver, order search, the counted tail, the default kernel on
// hub-free graphs), on shrunken synthetic datasets; the δ sweep is
// internal/intersect's BenchmarkAblationDelta. The paper's own tables
// and figures are cmd/benchpaper's; the repository's speed contract is
// benchmark/.
package light

import (
	"testing"

	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// Fast dataset stand-ins (same generators as gen.Suite, smaller).
var (
	ytFast = func() *graph.Graph { return gen.BarabasiAlbert(1200, 3, 101) }
	ljFast = func() *graph.Graph { return gen.BarabasiAlbert(1600, 7, 103) }
)

// pinnedPi mirrors cmd/benchpaper's π¹ (the paper's fixed orders for the
// individual-technique experiments).
var pinnedPi = map[string][]pattern.Vertex{
	"P2": {0, 2, 1, 3},
	"P4": {0, 1, 4, 2, 3},
	"P6": {0, 2, 1, 3, 4},
}

func pinnedPlan(b *testing.B, p *pattern.Pattern, mode plan.Mode) *plan.Plan {
	b.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, pinnedPi[shortName(p)], mode)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

func shortName(p *pattern.Pattern) string {
	name := p.Name()
	for i := 0; i < len(name); i++ {
		if name[i] == '-' {
			return name[:i]
		}
	}
	return name
}

// BenchmarkAblationTailCount measures the counted tail on P4: a
// count-only run counts σ's last two MATs, while the same run with a
// visitor walks them the way the paper's engine does.
func BenchmarkAblationTailCount(b *testing.B) {
	g := ljFast()
	pl := pinnedPlan(b, pattern.P4(), plan.ModeLIGHT)
	for _, c := range []struct {
		name  string
		visit engine.VisitFunc
	}{
		{"count-only", nil},
		{"visitor", func([]graph.VertexID) bool { return true }},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := engine.New(g, pl, engine.Options{})
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(c.visit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCoverSolver times Algorithm 3's exact minimum set
// cover end to end (compile + enumerate), so the price of exactness at
// compile time shows beside the run it plans.
func BenchmarkAblationCoverSolver(b *testing.B) {
	g := ljFast()
	pat := pattern.P6()
	po := pattern.SymmetryBreaking(pat)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pl, err := plan.Compile(pat, po, pinnedPi["P6"], plan.ModeLIGHT)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.New(g, pl, engine.Options{}).Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOrder compares the cost-model-chosen enumeration
// order against the first (arbitrary) connected order — the value of
// Section VI's optimizer.
func BenchmarkAblationOrder(b *testing.B) {
	g := ljFast()
	pat := pattern.P4()
	po := pattern.SymmetryBreaking(pat)
	chosen, err := plan.Choose(pat, po, estimate.Collect(g), plan.ModeLIGHT)
	if err != nil {
		b.Fatal(err)
	}
	arbitrary, err := plan.Compile(pat, po, plan.ConnectedOrders(pat, po)[0], plan.ModeLIGHT)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pl   *plan.Plan
	}{{"cost-chosen", chosen}, {"first-connected", arbitrary}} {
		b.Run(c.name, func(b *testing.B) {
			e := engine.New(g, c.pl, engine.Options{})
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDefaultKernelHubFree prices the default kernel where bitmaps
// cannot help: on graphs whose hub index is empty the zero Options must
// cost what explicit HybridBlock costs (EXPERIMENTS.md "Default kernel").
func BenchmarkDefaultKernelHubFree(b *testing.B) {
	p4, err := PatternByName("P4")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"grid300x300", GenerateGrid(300, 300)},
		{"er6000x60000", GenerateErdosRenyi(6000, 60000, 1)},
	} {
		if c.g.NumHubs() != 0 {
			b.Fatalf("%s indexes %d hubs; the benchmark needs a hub-free graph", c.name, c.g.NumHubs())
		}
		for _, k := range []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"HybridBlock", Options{Intersection: HybridBlock}},
		} {
			b.Run(c.name+"/"+k.name, func(b *testing.B) {
				var nodes uint64
				for i := 0; i < b.N; i++ {
					res, err := Count(c.g, p4, k.opts)
					if err != nil {
						b.Fatal(err)
					}
					nodes += res.Nodes
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			})
		}
	}
}
