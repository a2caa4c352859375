package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
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

// ----- shared plumbing -----

type dataset struct {
	name string
	g    *graph.Graph
}

func (c config) loadDatasets(defaults ...string) []dataset {
	names := c.datasets
	if names == nil {
		names = defaults
	}
	out := make([]dataset, 0, len(names))
	for _, n := range names {
		d, err := gen.ByName(n, c.scale)
		if err != nil {
			panic(err)
		}
		out = append(out, dataset{n, d.Make()})
	}
	return out
}

func (c config) loadPatterns(defaults ...string) []*pattern.Pattern {
	names := c.patterns
	if names == nil {
		names = defaults
	}
	out := make([]*pattern.Pattern, 0, len(names))
	for _, n := range names {
		p, err := pattern.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// compilePlan chooses the cost-optimal order for (p, g) under mode.
func compilePlan(g *graph.Graph, p *pattern.Pattern, mode plan.Mode) *plan.Plan {
	pl, err := plan.Choose(p, nil, estimate.Collect(g), mode)
	if err != nil {
		panic(err)
	}
	return pl
}

// pinnedOrders are the paper's π¹ for the individual-technique
// experiments (Section VIII-B1 lists them explicitly): π¹(P2) =
// (u0,u2,u1,u3) and π¹(P4) = (u0,u1,u4,u2,u3). Our P6 analog differs
// from the paper's pattern, so its pinned order (u0,u2,u1,u3,u4) is the
// one that exhibits the same MSC reuse the paper reports for P6.
// Using one fixed order across SE/LM/MSC/LIGHT isolates the techniques
// from the order optimizer, exactly as the paper does.
var pinnedOrders = map[string][]pattern.Vertex{
	"P2": {0, 2, 1, 3},
	"P4": {0, 1, 4, 2, 3},
	"P6": {0, 2, 1, 3, 4},
}

// sharedPlans compiles SE, LM, MSC and LIGHT on the SAME enumeration
// order, matching the paper's Fig 4/5 protocol ("the enumeration orders
// of SE, LM, MSC and LIGHT are the same"). The paper's pinned π¹ is used
// when the pattern has one; otherwise LIGHT's cost-optimal order.
func sharedPlans(g *graph.Graph, p *pattern.Pattern) map[string]*plan.Plan {
	pi := pinnedOrders[short(p)]
	if pi == nil {
		pi = compilePlan(g, p, plan.ModeLIGHT).Pi
	}
	po := pattern.SymmetryBreaking(p)
	out := make(map[string]*plan.Plan, 4)
	for _, mode := range []plan.Mode{plan.ModeSE, plan.ModeLM, plan.ModeMSC, plan.ModeLIGHT} {
		pl, err := plan.Compile(p, po, pi, mode)
		if err != nil {
			panic(err)
		}
		out[mode.Name()] = pl
	}
	return out
}

// outcome is one cell of a results table: a duration, a count, or a
// failure mark (INF for out-of-time, OOS for out-of-space). elems and
// mem are filled by the engine-backed runners only; the comparison
// systems report matches and intersections.
type outcome struct {
	dur     time.Duration
	count   uint64
	ints    uint64
	galloPc float64
	mark    string // "" = success
	elems   uint64
	mem     int64
}

func (o outcome) timeCell() string {
	if o.mark != "" {
		return o.mark
	}
	return fmtDur(o.dur)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// runPlan runs a precompiled plan with one thread (limit 0 =
// unlimited). A timer past limit is the only thing that sets the
// engine's Stop flag, so a stopped run is an OOT.
func runPlan(g *graph.Graph, pl *plan.Plan, kernel intersect.Kind, limit time.Duration) outcome {
	e := engine.New(g, pl, engine.Options{Kernel: kernel})
	if limit > 0 {
		var stop atomic.Bool
		e.Stop = &stop
		defer time.AfterFunc(limit, func() { stop.Store(true) }).Stop()
	}
	start := time.Now()
	res, _ := e.Run(nil) // without a memory budget or lanes Run has no error to return
	o := engineOutcome(time.Since(start), res)
	if res.Stopped {
		o.mark = "INF"
	}
	return o
}

// engineOutcome copies an engine result's counters into an outcome.
func engineOutcome(d time.Duration, res engine.Result) outcome {
	return outcome{
		dur:     d,
		count:   res.Matches,
		ints:    res.Stats.Intersections,
		galloPc: res.Stats.GallopingPercent(),
		elems:   res.Stats.Elements,
	}
}

// runParallel runs one engine-backed algorithm on the parallel pool.
func runParallel(g *graph.Graph, p *pattern.Pattern, mode plan.Mode, kernel intersect.Kind, workers int, limit time.Duration) outcome {
	return runParallelPlan(g, compilePlan(g, p, mode), kernel, workers, limit)
}

// runParallelPlan runs a precompiled plan on the parallel pool. The
// run is count-only, so the engine counts σ's trailing MATs instead of
// walking them.
func runParallelPlan(g *graph.Graph, pl *plan.Plan, kernel intersect.Kind, workers int, limit time.Duration) outcome {
	ctx := context.Background()
	if limit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limit)
		defer cancel()
	}
	start := time.Now()
	res, err := parallel.RunContext(ctx, g, pl, parallel.Options{
		Engine:  engine.Options{Kernel: kernel},
		Workers: workers,
	}, nil)
	o := engineOutcome(time.Since(start), res.Result)
	o.mem = res.CandidateMemBytes
	if errors.Is(err, context.DeadlineExceeded) {
		o.mark = "INF"
	}
	return o
}

// runEH / runCFL / runSEED / runCrystal wrap the comparison systems.
func runEH(g *graph.Graph, p *pattern.Pattern, limit time.Duration, spaceMB int64) outcome {
	start := time.Now()
	res, err := baselines.EH(g, p, baselines.Options{TimeLimit: limit, MaxBytes: spaceMB << 20})
	o := outcome{dur: time.Since(start), count: res.Matches, ints: res.Intersections}
	switch {
	case errors.Is(err, baselines.ErrTimeLimit):
		o.mark = "INF"
	case errors.Is(err, baselines.ErrOutOfSpace):
		o.mark = "OOS"
	}
	return o
}

func runCFL(g *graph.Graph, p *pattern.Pattern, limit time.Duration) outcome {
	start := time.Now()
	res, err := baselines.CFL(g, p, baselines.Options{TimeLimit: limit})
	o := outcome{dur: time.Since(start), count: res.Matches, ints: res.Intersections}
	if errors.Is(err, baselines.ErrTimeLimit) {
		o.mark = "INF"
	}
	return o
}

func runBFS(fn func(*graph.Graph, *pattern.Pattern, bfsjoin.Options) (bfsjoin.Result, error),
	g *graph.Graph, p *pattern.Pattern, c config) outcome {
	start := time.Now()
	res, err := fn(g, p, bfsjoin.Options{
		TimeLimit:       c.timeout,
		MaxBytes:        c.spaceMB << 20,
		ShufflePerTuple: c.shuffle,
		Sleep:           false, // report simulated time instead of sleeping
	})
	o := outcome{dur: time.Since(start) + res.ShuffleTime, count: res.Matches}
	switch {
	case errors.Is(err, bfsjoin.ErrTimeLimit):
		o.mark = "INF"
	case errors.Is(err, bfsjoin.ErrOutOfSpace):
		o.mark = "OOS"
	}
	return o
}

// ----- experiments -----

// table2 prints the dataset properties (the paper's Table II).
func table2(c config) {
	fmt.Printf("== Table II: dataset properties (scale=%d) ==\n", c.scale)
	fmt.Printf("%-8s %-14s %12s %12s %10s %8s\n", "Name", "Stands for", "N", "M", "Memory", "dmax")
	names := c.datasets
	if names == nil {
		names = []string{"yt-s", "eu-s", "lj-s", "ot-s", "uk-s", "fs-s"}
	}
	for _, n := range names {
		d, err := gen.ByName(n, c.scale)
		if err != nil {
			panic(err)
		}
		g := d.Make()
		fmt.Printf("%-8s %-14s %12d %12d %9.2fMB %8d\n",
			d.Name, d.Paper, g.NumVertices(), g.NumEdges(), float64(g.MemoryBytes())/(1<<20), g.MaxDegree())
	}
}

// fig4 compares the serial execution time of EH, CFL, SE, LM, MSC and
// LIGHT (all single-threaded, scalar Merge — the paper's no-SIMD setup).
func fig4(c config) {
	fmt.Println("== Fig 4: execution time, serial, no block kernels ==")
	fmt.Printf("%-8s %-4s | %10s %10s %10s %10s %10s %10s | %s\n",
		"dataset", "pat", "EH", "CFL", "SE", "LM", "MSC", "LIGHT", "matches")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		for _, p := range c.loadPatterns("P2", "P4", "P6") {
			plans := sharedPlans(d.g, p)
			eh := runEH(d.g, p, c.timeout, c.spaceMB)
			cfl := runCFL(d.g, p, c.timeout)
			se := runPlan(d.g, plans["SE"], intersect.KindMerge, c.timeout)
			lm := runPlan(d.g, plans["LM"], intersect.KindMerge, c.timeout)
			msc := runPlan(d.g, plans["MSC"], intersect.KindMerge, c.timeout)
			li := runPlan(d.g, plans["LIGHT"], intersect.KindMerge, c.timeout)
			fmt.Printf("%-8s %-4s | %10s %10s %10s %10s %10s %10s | %d\n",
				d.name, short(p), eh.timeCell(), cfl.timeCell(), se.timeCell(),
				lm.timeCell(), msc.timeCell(), li.timeCell(), li.count)
		}
	}
}

// fig5 compares the number of set intersections of the same algorithms.
func fig5(c config) {
	fmt.Println("== Fig 5: number of set intersections ==")
	fmt.Printf("%-8s %-4s | %12s %12s %12s %12s %12s %12s\n",
		"dataset", "pat", "EH", "CFL", "SE", "LM", "MSC", "LIGHT")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		for _, p := range c.loadPatterns("P2", "P4", "P6") {
			plans := sharedPlans(d.g, p)
			eh := runEH(d.g, p, c.timeout, c.spaceMB)
			cfl := runCFL(d.g, p, c.timeout)
			se := runPlan(d.g, plans["SE"], intersect.KindMerge, c.timeout)
			lm := runPlan(d.g, plans["LM"], intersect.KindMerge, c.timeout)
			msc := runPlan(d.g, plans["MSC"], intersect.KindMerge, c.timeout)
			li := runPlan(d.g, plans["LIGHT"], intersect.KindMerge, c.timeout)
			fmt.Printf("%-8s %-4s | %12s %12s %12s %12s %12s %12s\n",
				d.name, short(p), intCell(eh), intCell(cfl), intCell(se), intCell(lm), intCell(msc), intCell(li))
		}
	}
	fmt.Println("(failed runs show their mark; counts are exact and deterministic)")
}

func intCell(o outcome) string {
	if o.mark != "" {
		return o.mark
	}
	return fmt.Sprintf("%d", o.ints)
}

// fig6 compares the intersection kernels inside LIGHT (one thread).
func fig6(c config) {
	fmt.Println("== Fig 6: execution time by set intersection method (1 thread) ==")
	fmt.Printf("%-8s %-4s | %12s %12s %12s %12s\n",
		"dataset", "pat", "Merge", "MergeBlock", "Hybrid", "HybridBlock")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		for _, p := range c.loadPatterns("P2", "P4", "P6") {
			pl := sharedPlans(d.g, p)["LIGHT"]
			cells := make([]string, 4)
			for i, k := range []intersect.Kind{intersect.KindMerge, intersect.KindMergeBlock, intersect.KindHybrid, intersect.KindHybridBlock} {
				o := runPlan(d.g, pl, k, c.timeout)
				cells[i] = o.timeCell()
			}
			fmt.Printf("%-8s %-4s | %12s %12s %12s %12s\n", d.name, short(p), cells[0], cells[1], cells[2], cells[3])
		}
	}
}

// table3 prints the percentage of galloping searches under Hybrid.
func table3(c config) {
	fmt.Println("== Table III: percentage of Galloping search (Hybrid kernel) ==")
	fmt.Printf("%-8s %-4s | %10s\n", "dataset", "pat", "Galloping%")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		for _, p := range c.loadPatterns("P2", "P4", "P6") {
			o := runPlan(d.g, sharedPlans(d.g, p)["LIGHT"], intersect.KindHybrid, c.timeout)
			cell := fmt.Sprintf("%.1f%%", o.galloPc)
			if o.mark != "" {
				cell = o.mark
			}
			fmt.Printf("%-8s %-4s | %10s\n", d.name, short(p), cell)
		}
	}
}

// fig7 scales the thread count for LIGHT with HybridBlock. A column
// with more workers than the host has CPUs is marked oversubscribed: it
// measures the scheduler's overhead, not scaling.
func fig7(c config) {
	fmt.Println("== Fig 7: LIGHT execution time vs threads (HybridBlock) ==")
	threads := []int{1, 2, 4, 8, 16, 32, 64}
	cpus := runtime.NumCPU()
	fmt.Printf("%-8s %-4s |", "dataset", "pat")
	for _, t := range threads {
		col := fmt.Sprintf("%dT", t)
		if t > cpus {
			col += "*"
		}
		fmt.Printf(" %9s", col)
	}
	fmt.Printf(" | %9s\n", "speedup")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		for _, p := range c.loadPatterns("P2", "P4", "P6") {
			fmt.Printf("%-8s %-4s |", d.name, short(p))
			var base, best time.Duration
			for _, t := range threads {
				o := runParallel(d.g, p, plan.ModeLIGHT, intersect.KindHybridBlock, t, c.timeout)
				fmt.Printf(" %9s", o.timeCell())
				if t == 1 {
					base = o.dur
				}
				if best == 0 || o.dur < best {
					best = o.dur
				}
			}
			fmt.Printf(" | %8.1fx\n", float64(base)/float64(best))
		}
	}
	if threads[len(threads)-1] > cpus {
		fmt.Printf("* oversubscribed: more workers than runtime.NumCPU() = %d\n", cpus)
	}
}

// table4 reproduces the SE vs LIGHT speedup table.
func table4(c config) {
	fmt.Println("== Table IV: comparison with SE ==")
	fmt.Printf("%-8s %-4s | %10s %10s %10s %10s | %9s\n",
		"dataset", "pat", "T_SE", "T_SE+P", "T_LIGHT", "T_LIGHT+P", "speedup")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		for _, p := range c.loadPatterns("P2", "P4", "P6") {
			plans := sharedPlans(d.g, p)
			se := runPlan(d.g, plans["SE"], intersect.KindMerge, c.timeout)
			sep := runParallelPlan(d.g, plans["SE"], intersect.KindHybridBlock, c.workers, c.timeout)
			li := runPlan(d.g, plans["LIGHT"], intersect.KindMerge, c.timeout)
			lip := runParallelPlan(d.g, plans["LIGHT"], intersect.KindHybridBlock, c.workers, c.timeout)
			speed := "-"
			if se.mark == "" && lip.mark == "" && lip.dur > 0 {
				speed = fmt.Sprintf("%.0fx", float64(se.dur)/float64(lip.dur))
			}
			fmt.Printf("%-8s %-4s | %10s %10s %10s %10s | %9s\n",
				d.name, short(p), se.timeCell(), sep.timeCell(), li.timeCell(), lip.timeCell(), speed)
		}
	}
}

// table5 reports the candidate-set memory of the parallel run on P5.
func table5(c config) {
	fmt.Printf("== Table V: candidate-set memory on P5 (%d workers) ==\n", c.workers)
	fmt.Printf("%-8s | %12s\n", "dataset", "memory")
	p := pattern.P5()
	for _, d := range c.loadDatasets("yt-s", "eu-s", "lj-s", "ot-s", "uk-s", "fs-s") {
		o := runParallel(d.g, p, plan.ModeLIGHT, intersect.KindHybridBlock, c.workers, c.timeout)
		cell := fmt.Sprintf("%.3fMB", float64(o.mem)/(1<<20))
		if o.mark != "" {
			cell = o.mark
		}
		fmt.Printf("%-8s | %12s\n", d.name, cell)
	}
}

// fig8 is the overall comparison: LIGHT vs DUALSIM-sim (parallel SE) vs
// SEED-sim vs CRYSTAL-sim across the full pattern catalog and suite.
func fig8(c config) {
	fmt.Printf("== Fig 8: overall comparison (workers=%d, space budget=%dMiB, shuffle=%v/tuple) ==\n",
		c.workers, c.spaceMB, c.shuffle)
	hdr := "%-8s %-4s | %10s %10s %10s %10s"
	if c.twintwig {
		fmt.Printf(hdr+" %10s | %s\n", "dataset", "pat", "LIGHT", "DUALSIM*", "SEED*", "CRYSTAL*", "TWINTWIG*", "matches")
	} else {
		fmt.Printf(hdr+" | %s\n", "dataset", "pat", "LIGHT", "DUALSIM*", "SEED*", "CRYSTAL*", "matches")
	}
	for _, d := range c.loadDatasets("yt-s", "eu-s", "lj-s", "ot-s", "uk-s", "fs-s") {
		for _, p := range c.loadPatterns("P1", "P2", "P3", "P4", "P5", "P6", "P7") {
			li := runParallelPlan(d.g, compilePlan(d.g, p, plan.ModeLIGHT), intersect.KindHybridBlock, c.workers, c.timeout)
			du := runParallelPlan(d.g, compilePlan(d.g, p, plan.ModeSE), intersect.KindHybridBlock, c.workers, c.timeout)
			seed := runBFS(bfsjoin.SEED, d.g, p, c)
			cry := runBFS(bfsjoin.Crystal, d.g, p, c)
			matches := "-"
			if li.mark == "" {
				matches = fmt.Sprintf("%d", li.count)
			}
			if c.twintwig {
				tt := runBFS(bfsjoin.TwinTwig, d.g, p, c)
				fmt.Printf("%-8s %-4s | %10s %10s %10s %10s %10s | %s\n",
					d.name, short(p), li.timeCell(), du.timeCell(), seed.timeCell(), cry.timeCell(), tt.timeCell(), matches)
				continue
			}
			fmt.Printf("%-8s %-4s | %10s %10s %10s %10s | %s\n",
				d.name, short(p), li.timeCell(), du.timeCell(), seed.timeCell(), cry.timeCell(), matches)
		}
	}
	fmt.Println("(*simulated comparators; see DESIGN.md §3. INF = out of time, OOS = out of space)")
}

// estimator is a supplementary experiment (not a paper table): how well
// the planner's Section VI cost walk estimates true match counts. The
// estimate is the walk's reach after the chosen plan's last MAT, where
// symmetry breaking has already cut the count to the matches the engine
// keeps. The optimizer only needs relative accuracy across orders on the
// same graph; this prints the absolute ratios for transparency.
func estimator(c config) {
	fmt.Println("== Supplementary: cardinality estimator calibration ==")
	fmt.Printf("%-8s %-4s | %14s %14s %8s\n", "dataset", "pat", "true", "estimated", "ratio")
	for _, d := range c.loadDatasets("yt-s", "lj-s") {
		stats := estimate.Collect(d.g)
		for _, p := range c.loadPatterns("P1", "P2", "P3", "P4") {
			pl := compilePlan(d.g, p, plan.ModeLIGHT)
			o := runPlan(d.g, pl, intersect.KindHybridBlock, c.timeout)
			if o.mark != "" {
				fmt.Printf("%-8s %-4s | %14s\n", d.name, short(p), o.mark)
				continue
			}
			est := pl.EstimatedMatches(stats)
			ratio := 0.0
			if o.count > 0 {
				ratio = est / float64(o.count)
			}
			fmt.Printf("%-8s %-4s | %14d %14.3g %8.2f\n", d.name, short(p), o.count, est, ratio)
		}
	}
	fmt.Println("(ratio ≈ 1 is perfect; the optimizer needs only relative consistency)")
}

// regret is a supplementary experiment (not a paper table): how good the
// order Section VI's optimizer chooses is, measured against every order
// it chooses from. Each connected order that respects the partial order
// runs serially under both the default kernel and the paper's
// HybridBlock; the chosen order is ranked among them by exact elements
// scanned and by time, beside the model's cost of the chosen and of the
// fewest-elements order. An order that overruns the timeout is marked
// and ranks last.
func regret(c config) {
	fmt.Printf("== Supplementary: planner regret — every connected order, serial, %v per order ==\n", c.timeout)
	fmt.Printf("%-6s %-3s %-12s | %-11s %12s %9s %7s %7s %6s | %-11s %12s | %9s %9s\n",
		"data", "pat", "kernel", "chosen π", "elements", "time", "r(elem)", "r(time)", "ratio", "fewest π", "elements", "cost(ch)", "cost(few)")
	for _, d := range c.loadDatasets("yt-s", "lj-s", "eu-s") {
		stats := estimate.Collect(d.g)
		for _, p := range c.loadPatterns("P1", "P2", "P3", "P4", "P5", "P6", "P7") {
			po := pattern.SymmetryBreaking(p)
			chosen, err := plan.Choose(p, po, stats, plan.ModeLIGHT)
			if err != nil {
				panic(err)
			}
			orders := plan.ConnectedOrders(p, po)
			plans := make([]*plan.Plan, len(orders))
			for i, pi := range orders {
				if plans[i], err = plan.Compile(p, po, pi, plan.ModeLIGHT); err != nil {
					panic(err)
				}
			}
			for _, kernel := range []intersect.Kind{intersect.KindHybridBitmap, intersect.KindHybridBlock} {
				outs := make([]outcome, len(plans))
				ch := -1
				for i, pl := range plans {
					outs[i] = runPlan(d.g, pl, kernel, c.timeout)
					if fmt.Sprint(pl.Pi) == fmt.Sprint(chosen.Pi) {
						ch = i
					}
				}
				// rank counts the orders that beat the chosen one; an
				// overrun beats nothing, and an overrun chosen order has
				// no rank.
				rank := func(less func(a, b outcome) bool) string {
					if outs[ch].mark != "" {
						return "-"
					}
					r := 1
					for i, o := range outs {
						if i != ch && o.mark == "" && less(o, outs[ch]) {
							r++
						}
					}
					return fmt.Sprintf("%d/%d", r, len(outs))
				}
				few := ch
				for i, o := range outs {
					if o.mark == "" && (outs[few].mark != "" || o.elems < outs[few].elems) {
						few = i
					}
				}
				ratio := "-"
				if outs[ch].mark == "" && outs[few].elems > 0 {
					ratio = fmt.Sprintf("%.2f", float64(outs[ch].elems)/float64(outs[few].elems))
				}
				elems := func(o outcome) string {
					if o.mark != "" {
						return o.mark
					}
					return fmt.Sprint(o.elems)
				}
				fmt.Printf("%-6s %-3s %-12s | %-11s %12s %9s %7s %7s %6s | %-11s %12s | %9.3g %9.3g\n",
					d.name, short(p), kernel, piCell(chosen.Pi), elems(outs[ch]), outs[ch].timeCell(),
					rank(func(a, b outcome) bool { return a.elems < b.elems }),
					rank(func(a, b outcome) bool { return a.dur < b.dur }),
					ratio, piCell(plans[few].Pi), elems(outs[few]),
					chosen.Cost(stats), plans[few].Cost(stats))
			}
		}
	}
	fmt.Println("(ratio = chosen ÷ fewest elements; r(x) = the chosen order's rank by x among the orders the optimizer searches)")
}

func piCell(pi []pattern.Vertex) string {
	return strings.Trim(fmt.Sprint(pi), "[]")
}

func short(p *pattern.Pattern) string {
	name := p.Name()
	if i := indexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
