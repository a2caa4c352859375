// Benchmarks mirroring every table and figure of the paper's evaluation
// (Section VIII), one bench family per experiment, on shrunken versions
// of the synthetic datasets so `go test -bench=.` finishes in minutes.
// The full-size experiment harness is cmd/benchpaper; EXPERIMENTS.md
// records paper-vs-measured for both.
package light

import (
	"fmt"
	"testing"
	"time"

	"light/internal/baselines"
	"light/internal/bfsjoin"
	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/parallel"
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

// BenchmarkFig4 measures the serial execution time of every algorithm in
// the Fig 4 comparison on (P2, yt-fast) and (P4, lj-fast).
func BenchmarkFig4(b *testing.B) {
	cases := []struct {
		data func() *graph.Graph
		dn   string
		pat  *pattern.Pattern
	}{
		{ytFast, "yt", pattern.P2()},
		{ljFast, "lj", pattern.P4()},
	}
	for _, c := range cases {
		g := c.data()
		for _, mode := range []plan.Mode{plan.ModeSE, plan.ModeLM, plan.ModeMSC, plan.ModeLIGHT} {
			pl := pinnedPlan(b, c.pat, mode)
			b.Run(fmt.Sprintf("%s/%s/%s", c.dn, shortName(c.pat), mode.Name()), func(b *testing.B) {
				e := engine.New(g, pl, engine.Options{Kernel: intersect.KindMerge})
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/%s/EH", c.dn, shortName(c.pat)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baselines.EH(g, c.pat, baselines.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/%s/CFL", c.dn, shortName(c.pat)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baselines.CFL(g, c.pat, baselines.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5 reports the deterministic set-intersection counts of
// SE/LM/MSC/LIGHT as a custom metric (intersections/op).
func BenchmarkFig5(b *testing.B) {
	g := ljFast()
	for _, pat := range []*pattern.Pattern{pattern.P2(), pattern.P4(), pattern.P6()} {
		for _, mode := range []plan.Mode{plan.ModeSE, plan.ModeLM, plan.ModeMSC, plan.ModeLIGHT} {
			pl := pinnedPlan(b, pat, mode)
			b.Run(fmt.Sprintf("%s/%s", shortName(pat), mode.Name()), func(b *testing.B) {
				e := engine.New(g, pl, engine.Options{Kernel: intersect.KindMerge})
				var ints uint64
				for i := 0; i < b.N; i++ {
					res, err := e.Run(nil)
					if err != nil {
						b.Fatal(err)
					}
					ints = res.Stats.Intersections
				}
				b.ReportMetric(float64(ints), "intersections/op")
			})
		}
	}
}

// BenchmarkFig6 compares the intersection kernels inside LIGHT.
func BenchmarkFig6(b *testing.B) {
	g := ljFast()
	for _, pat := range []*pattern.Pattern{pattern.P2(), pattern.P4()} {
		pl := pinnedPlan(b, pat, plan.ModeLIGHT)
		for _, k := range []intersect.Kind{intersect.KindMerge, intersect.KindMergeBlock, intersect.KindHybrid, intersect.KindHybridBlock} {
			b.Run(fmt.Sprintf("%s/%s", shortName(pat), k), func(b *testing.B) {
				e := engine.New(g, pl, engine.Options{Kernel: k})
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3 reports the galloping share under the Hybrid kernel.
func BenchmarkTable3(b *testing.B) {
	g := ytFast()
	for _, pat := range []*pattern.Pattern{pattern.P2(), pattern.P4(), pattern.P6()} {
		pl := pinnedPlan(b, pat, plan.ModeLIGHT)
		b.Run(shortName(pat), func(b *testing.B) {
			e := engine.New(g, pl, engine.Options{Kernel: intersect.KindHybrid})
			var pct float64
			for i := 0; i < b.N; i++ {
				res, err := e.Run(nil)
				if err != nil {
					b.Fatal(err)
				}
				pct = res.Stats.GallopingPercent()
			}
			b.ReportMetric(pct, "galloping%")
		})
	}
}

// BenchmarkFig7 scales the worker count (thread-scaling shape depends on
// the machine's core count; see EXPERIMENTS.md).
func BenchmarkFig7(b *testing.B) {
	g := ljFast()
	pat := pattern.P4()
	pl := pinnedPlan(b, pat, plan.ModeLIGHT)
	for _, workers := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("threads=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(g, pl, parallel.Options{
					Engine:  engine.Options{Kernel: intersect.KindHybridBlock},
					Workers: workers,
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4 measures the four Table IV configurations.
func BenchmarkTable4(b *testing.B) {
	g := ljFast()
	pat := pattern.P4()
	run := func(name string, mode plan.Mode, kernel intersect.Kind, workers int) {
		pl := pinnedPlan(b, pat, mode)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if workers > 1 {
					_, err = parallel.Run(g, pl, parallel.Options{Engine: engine.Options{Kernel: kernel}, Workers: workers}, nil)
				} else {
					_, err = engine.New(g, pl, engine.Options{Kernel: kernel}).Run(nil)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("T_SE", plan.ModeSE, intersect.KindMerge, 1)
	run("T_SE+P", plan.ModeSE, intersect.KindHybridBlock, 8)
	run("T_LIGHT", plan.ModeLIGHT, intersect.KindMerge, 1)
	run("T_LIGHT+P", plan.ModeLIGHT, intersect.KindHybridBlock, 8)
}

// BenchmarkTable5 reports the candidate-set memory of a parallel P5 run.
func BenchmarkTable5(b *testing.B) {
	g := ljFast()
	pat := pattern.P5()
	po := pattern.SymmetryBreaking(pat)
	pl, err := plan.Compile(pat, po, plan.ConnectedOrders(pat, po)[0], plan.ModeLIGHT)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("P5/workers=8", func(b *testing.B) {
		var mem int64
		for i := 0; i < b.N; i++ {
			res, err := parallel.Run(g, pl, parallel.Options{Workers: 8}, nil)
			if err != nil {
				b.Fatal(err)
			}
			mem = res.CandidateMemBytes
		}
		b.ReportMetric(float64(mem), "candidate-bytes")
	})
}

// BenchmarkFig8 compares LIGHT against the simulated distributed
// systems and the DUALSIM proxy on one representative case.
func BenchmarkFig8(b *testing.B) {
	g := ljFast()
	pat := pattern.P1()
	po := pattern.SymmetryBreaking(pat)
	stats := estimate.Collect(g)
	pl, err := plan.Choose(pat, po, stats, plan.ModeLIGHT)
	if err != nil {
		b.Fatal(err)
	}
	sePlan, err := plan.Choose(pat, po, stats, plan.ModeSE)
	if err != nil {
		b.Fatal(err)
	}
	bfsOpts := bfsjoin.Options{ShufflePerTuple: 150 * time.Nanosecond, Sleep: true}

	b.Run("LIGHT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Run(g, pl, parallel.Options{Workers: 8}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DUALSIM-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Run(g, sePlan, parallel.Options{Workers: 8}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SEED-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bfsjoin.SEED(g, pat, bfsOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CRYSTAL-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bfsjoin.Crystal(g, pat, bfsOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TwinTwig-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bfsjoin.TwinTwig(g, pat, bfsOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationScheduler compares the work-stealing scheduler against
// plain root chunking on a hub-dominated graph (DESIGN.md §5).
func BenchmarkAblationScheduler(b *testing.B) {
	g := gen.BarabasiAlbert(2500, 8, 4)
	pat := pattern.P3()
	po := pattern.SymmetryBreaking(pat)
	pl, err := plan.Choose(pat, po, estimate.Collect(g), plan.ModeLIGHT)
	if err != nil {
		b.Fatal(err)
	}
	for _, sched := range []parallel.Scheduler{parallel.WorkStealing, parallel.RootChunk, parallel.StaticPartition} {
		b.Run(sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(g, pl, parallel.Options{
					Workers: 8, Scheduler: sched, ChunkSize: 512,
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTailCount measures the leaf-MAT counting shortcut.
func BenchmarkAblationTailCount(b *testing.B) {
	g := ljFast()
	pl := pinnedPlan(b, pattern.P4(), plan.ModeLIGHT)
	for _, tail := range []bool{false, true} {
		b.Run(fmt.Sprintf("tailcount=%v", tail), func(b *testing.B) {
			e := engine.New(g, pl, engine.Options{TailCount: tail})
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCoverSolver compares Algorithm 3 with the exact
// minimum set cover against the greedy approximation, end to end
// (compile + enumerate). On patterns this small the covers usually
// coincide, so this measures the price of exactness at compile time and
// any runtime drift when they differ.
func BenchmarkAblationCoverSolver(b *testing.B) {
	g := ljFast()
	pat := pattern.P6()
	po := pattern.SymmetryBreaking(pat)
	for _, mode := range []plan.Mode{
		{LazyMaterialization: true, MinSetCover: true},
		{LazyMaterialization: true, MinSetCover: true, GreedyCover: true},
	} {
		name := "exact"
		if mode.GreedyCover {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl, err := plan.Compile(pat, po, pinnedPi["P6"], mode)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.New(g, pl, engine.Options{}).Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkExtensionLabeled measures the labeled fast path: the same
// shape queried unlabeled vs with 4 labels (label classes shrink the
// root set and the NLF filter prunes candidates).
func BenchmarkExtensionLabeled(b *testing.B) {
	g := GenerateBarabasiAlbert(2000, 5, 31)
	labels := make([]Label, g.NumVertices())
	for v := range labels {
		labels[v] = Label(v % 4)
	}
	lg, err := WithLabels(g, labels)
	if err != nil {
		b.Fatal(err)
	}
	tri, _ := PatternByName("triangle")
	lp, err := WithPatternLabels(tri, []Label{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unlabeled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Count(g, tri, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("labeled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CountLabeled(lg, lp, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionApprox compares exact counting against sampling at
// two probe budgets.
func BenchmarkExtensionApprox(b *testing.B) {
	g := GenerateBarabasiAlbert(3000, 5, 17)
	p, _ := PatternByName("P1")
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Count(g, p, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, samples := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("approx-%d", samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ApproxCount(g, p, samples, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDelta sweeps the Hybrid threshold δ (the paper fixes
// δ = 50 from a prior study).
func BenchmarkAblationDelta(b *testing.B) {
	g := ytFast()
	pl := pinnedPlan(b, pattern.P2(), plan.ModeLIGHT)
	for _, delta := range []int{2, 8, 50, 500} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			e := engine.New(g, pl, engine.Options{Kernel: intersect.KindHybrid, Delta: delta})
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
