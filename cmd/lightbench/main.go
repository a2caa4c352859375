// Command lightbench is the deterministic smoke-benchmark suite behind
// scripts/bench_gate.sh: P2/P4/P6 on a seeded synthetic graph, serial
// and 4-thread, plus a hub-bitmap kernel section (HybridBlock vs
// HybridBitmap on a seeded star-chords graph), a governor-overhead
// section (the same cell ungoverned and under an uncontended Governor,
// gated on counter parity), and a catalog-throughput section (the full
// P1..P7 catalog over a minimum-degree ladder, lane-batched vs a
// sequential loop at equal workers, gated on per-query counter parity
// with the aggregate speedup advisory), written as a schema-versioned
// BENCH_smoke.json report.
//
// The work counters in the report (matches, nodes, comps,
// intersections, galloping, elements) depend only on (graph, plan,
// kernel) — the suite verifies that itself by requiring the serial and
// parallel runs of every pattern to agree — so CI gates them on exact
// equality against the committed baseline in bench/BENCH_smoke.json.
// Wall-clock times are gated with a tolerance, or advisory on noisy
// shared runners.
//
// Usage:
//
//	lightbench [-out BENCH_smoke.json]           # run the suite
//	lightbench -compare [-advisory-time] A B     # gate B against baseline A
//
// In -compare mode the exit status is non-zero when any deterministic
// counter differs, or (unless -advisory-time) when a wall-clock time
// regresses past -wall-tolerance.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"light"
	"light/internal/gen"
	"light/internal/metrics"
)

// benchDataset / benchScale pin the suite's graph: the seeded yt-s
// generator, so every machine builds the identical graph.
const (
	benchDataset = "yt-s"
	benchScale   = 1
	wallSlack    = 25 * time.Millisecond
)

var benchPatterns = []string{"P2", "P4", "P6"}

// The bitmap section's graph: a seeded star-with-chords, whose hub
// vertex dominates every intersection — the shape the hub-bitmap index
// targets. Large enough that the serial wall time is well above timer
// noise, so the HybridBlock→HybridBitmap speedup is measurable.
const (
	bitmapDataset = "star-chords"
	bitmapLeaves  = 4000
	bitmapChords  = 24000
	bitmapSeed    = 7
)

var bitmapPatterns = []string{"triangle", "P2"}

func main() {
	out := flag.String("out", "BENCH_smoke.json", "report output path")
	compare := flag.Bool("compare", false, "compare two reports (args: baseline fresh) instead of running")
	advisoryTime := flag.Bool("advisory-time", false, "with -compare: report wall-clock regressions without failing")
	wallTol := flag.Float64("wall-tolerance", 0.15, "with -compare: allowed wall-clock slowdown fraction")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "lightbench: -compare needs two arguments: baseline fresh")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *wallTol, *advisoryTime))
	}

	rep, err := runSuite()
	if err != nil {
		fatal(err)
	}
	if err := metrics.WriteBenchFile(*out, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d rows, fingerprint %s)\n", *out, len(rep.Rows), rep.Fingerprint)
}

// runSuite executes every (pattern, system) cell and self-checks the
// determinism invariant the CI gate relies on: serial and 4-thread runs
// must produce identical work counters.
func runSuite() (*metrics.BenchReport, error) {
	d, err := gen.ByName(benchDataset, benchScale)
	if err != nil {
		return nil, err
	}
	ig := d.Make()
	edges := make([][2]light.VertexID, 0, ig.NumEdges())
	for v := 0; v < ig.NumVertices(); v++ {
		for _, w := range ig.Neighbors(light.VertexID(v)) {
			if light.VertexID(v) < w {
				edges = append(edges, [2]light.VertexID{light.VertexID(v), w})
			}
		}
	}
	g := light.NewGraph(ig.NumVertices(), edges)

	var rows []metrics.BenchRow
	for _, name := range benchPatterns {
		p, err := light.PatternByName(name)
		if err != nil {
			return nil, err
		}
		serial, err := runCell(g, p, 1)
		if err != nil {
			return nil, fmt.Errorf("%s serial: %w", name, err)
		}
		par, err := runCell(g, p, 4)
		if err != nil {
			return nil, fmt.Errorf("%s 4T: %w", name, err)
		}
		if serial.Matches != par.Matches || serial.Nodes != par.Nodes ||
			serial.Comps != par.Comps || serial.Intersections != par.Intersections ||
			serial.Galloping != par.Galloping || serial.Elements != par.Elements {
			return nil, fmt.Errorf("%s: determinism self-check failed: serial %+v vs 4T %+v", name, serial, par)
		}
		rows = append(rows, serial, par)
	}
	bitmapRows, err := runBitmapSection()
	if err != nil {
		return nil, err
	}
	rows = append(rows, bitmapRows...)
	govRows, err := runGovernorSection(g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, govRows...)
	catalogRows, err := runCatalogSection(g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, catalogRows...)
	return metrics.NewBenchReport("smoke", map[string]string{
		"dataset":        benchDataset,
		"scale":          fmt.Sprint(benchScale),
		"bitmap_dataset": fmt.Sprintf("%s(%d,%d,%d)", bitmapDataset, bitmapLeaves, bitmapChords, bitmapSeed),
		"governor":       fmt.Sprintf("slots=%d pattern=%s", govSlots, govPattern),
		"catalog":        fmt.Sprintf("ladder=%v workers=%d", catalogMinDegrees, catalogWorkers),
	}, rows), nil
}

// The catalog section's configuration: the full P1..P7 catalog, each
// pattern queried at every threshold of a nested minimum-degree ladder
// — the analytics shape lane batching targets, where every stricter
// query's search tree nests inside the loosest one's, so the batch
// walks each pattern's tree once where the sequential loop walks it
// len(ladder) times.
var catalogMinDegrees = []int{0, 1, 2, 3, 4}

const catalogWorkers = 4

// runCatalogSection runs the whole catalog ladder as one lane batch and
// as a sequential loop of filtered Count calls at the same worker
// count. Per-query counter parity between the two is a hard self-check
// — the lane engine's exactness gate — and the aggregate batch-vs-loop
// speedup is printed and recorded in two gate-able aggregate rows
// (counters exact, wall clock advisory in CI).
func runCatalogSection(g *light.Graph) ([]metrics.BenchRow, error) {
	names := light.CatalogNames()
	var queries []light.BatchQuery
	for _, name := range names {
		p, err := light.PatternByName(name)
		if err != nil {
			return nil, err
		}
		for _, md := range catalogMinDegrees {
			queries = append(queries, light.BatchQuery{Pattern: p, MinDegree: md})
		}
	}
	// Like every gated row, the section names its kernel: the baseline's
	// counters are HybridBlock's, whatever the library default is.
	catalogOpts := light.Options{Workers: catalogWorkers, Intersection: light.HybridBlock}
	bres, err := light.CountBatch(g, queries, catalogOpts)
	if err != nil {
		return nil, fmt.Errorf("catalog section batch: %w", err)
	}
	if bres.Groups != len(names) {
		return nil, fmt.Errorf("catalog section: %d lane groups for %d patterns", bres.Groups, len(names))
	}

	var batchAgg, seqAgg metrics.BenchRow
	var seqWall time.Duration
	for i, q := range queries {
		md := catalogMinDegrees[i%len(catalogMinDegrees)]
		opts := catalogOpts
		if md > 0 {
			min := md
			opts.Filter = func(u int, v light.VertexID) bool { return g.Degree(v) >= min }
		}
		solo, err := light.Count(g, q.Pattern, opts)
		if err != nil {
			return nil, fmt.Errorf("catalog section %s/minDeg=%d sequential: %w", q.Pattern.Name(), md, err)
		}
		seqWall += solo.Duration
		b := bres.Queries[i]
		// Hard self-check: the lane-attributed counters must equal the
		// sequential reference exactly, per query. Any drift here means
		// the shared traversal is mis-attributing work and the whole
		// section is invalid.
		if b.Matches != solo.Matches || b.Nodes != solo.Nodes ||
			b.Report.Comps != solo.Report.Comps ||
			b.Report.Intersections != solo.Report.Intersections ||
			b.Report.Galloping != solo.Report.Galloping ||
			b.Report.Elements != solo.Report.Elements {
			return nil, fmt.Errorf("catalog section: lane parity failed for %s/minDeg=%d: batch %+v vs sequential %+v",
				q.Pattern.Name(), md, b.Report, solo.Report)
		}
		addReport(&batchAgg, b.Report)
		addReport(&seqAgg, solo.Report)
	}
	batchAgg.Dataset, batchAgg.Pattern, batchAgg.System = benchDataset, "catalog", fmt.Sprintf("LIGHT-batch/%dT", catalogWorkers)
	batchAgg.WallNS = int64(bres.Duration)
	batchAgg.MemoryBytes = bres.Queries[0].CandidateMemoryBytes
	seqAgg.Dataset, seqAgg.Pattern, seqAgg.System = benchDataset, "catalog", fmt.Sprintf("LIGHT-seq-loop/%dT", catalogWorkers)
	seqAgg.WallNS = int64(seqWall)

	fmt.Printf("catalog section: %d queries, batch %v vs sequential loop %v (%.2fx aggregate throughput, advisory)\n",
		len(queries), bres.Duration.Round(time.Microsecond), seqWall.Round(time.Microsecond),
		float64(seqWall)/float64(bres.Duration))
	return []metrics.BenchRow{batchAgg, seqAgg}, nil
}

// addReport accumulates a run's deterministic counters into an
// aggregate row.
func addReport(row *metrics.BenchRow, r *light.RunReport) {
	row.Matches += r.Matches
	row.Nodes += r.Nodes
	row.Comps += r.Comps
	row.Intersections += r.Intersections
	row.Galloping += r.Galloping
	row.Elements += r.Elements
	row.BitmapProbes += r.BitmapProbes
}

// The governor section's configuration: one pattern from the main
// suite, 4 workers, an uncontended 4-slot governor — the pure-overhead
// case, where admission must grant the full request immediately and
// perturb no work counter.
const (
	govPattern = "P4"
	govSlots   = 4
)

// runGovernorSection measures the resource governor's overhead on the
// main suite graph: the same (pattern, 4T) cell ungoverned and under an
// uncontended default Governor. The work counters must be identical —
// admission control sits entirely outside the enumeration loop — and
// the governed run must report a full grant, so a regression that
// sneaks governor bookkeeping into the hot path or quietly under-admits
// trips the exact-equality gate. The wall-clock delta is advisory.
func runGovernorSection(g *light.Graph) ([]metrics.BenchRow, error) {
	p, err := light.PatternByName(govPattern)
	if err != nil {
		return nil, err
	}
	bare, err := runKernelCell(g, p, benchDataset, light.HybridBlock, govSlots)
	if err != nil {
		return nil, fmt.Errorf("governor section ungoverned: %w", err)
	}
	bare.System = "LIGHT-gov/off"

	gov := light.NewGovernor(light.GovernorConfig{Slots: govSlots})
	res, err := light.Count(g, p, light.Options{
		Workers:      govSlots,
		Intersection: light.HybridBlock,
		Governor:     gov,
	})
	if err != nil {
		return nil, fmt.Errorf("governor section governed: %w", err)
	}
	r := res.Report
	governed := metrics.BenchRow{
		Dataset:       benchDataset,
		Pattern:       p.Name(),
		System:        "LIGHT-gov/on",
		WallNS:        r.WallNS,
		Matches:       r.Matches,
		Nodes:         r.Nodes,
		Comps:         r.Comps,
		Intersections: r.Intersections,
		Galloping:     r.Galloping,
		Elements:      r.Elements,
		BitmapProbes:  r.BitmapProbes,
		Slots:         r.SlotsGranted,
		MemoryBytes:   r.CandidateMemoryBytes,
	}

	if governed.Matches != bare.Matches || governed.Nodes != bare.Nodes ||
		governed.Comps != bare.Comps || governed.Intersections != bare.Intersections ||
		governed.Galloping != bare.Galloping || governed.Elements != bare.Elements {
		return nil, fmt.Errorf("governor section: counter parity failed: ungoverned %+v vs governed %+v", bare, governed)
	}
	if governed.Slots != govSlots {
		return nil, fmt.Errorf("governor section: uncontended governor granted %d slots, want %d", governed.Slots, govSlots)
	}
	if len(r.DegradationEvents) != 0 {
		return nil, fmt.Errorf("governor section: unpressured run degraded: %v", r.DegradationEvents)
	}
	fmt.Printf("governor section %s: ungoverned %v, governed %v (%.1f%% overhead, advisory)\n",
		govPattern, time.Duration(bare.WallNS), time.Duration(governed.WallNS),
		100*(float64(governed.WallNS)/float64(bare.WallNS)-1))
	return []metrics.BenchRow{bare, governed}, nil
}

// runBitmapSection benchmarks the hub-bitmap kernel against its list
// fallback on the star-chords graph, with the same serial-vs-parallel
// counter self-check as the main section plus two of its own: the two
// kernels must agree on matches, and the bitmap kernel must actually
// probe (a silent fall-back to the list path would quietly hollow the
// benchmark out). The speedup itself is wall-clock and therefore
// advisory — it is printed, not gated.
func runBitmapSection() ([]metrics.BenchRow, error) {
	ig := gen.StarChords(bitmapLeaves, bitmapChords, bitmapSeed)
	edges := make([][2]light.VertexID, 0, ig.NumEdges())
	for v := 0; v < ig.NumVertices(); v++ {
		for _, w := range ig.Neighbors(light.VertexID(v)) {
			if light.VertexID(v) < w {
				edges = append(edges, [2]light.VertexID{light.VertexID(v), w})
			}
		}
	}
	g := light.NewGraph(ig.NumVertices(), edges)

	var rows []metrics.BenchRow
	for _, name := range bitmapPatterns {
		p, err := light.PatternByName(name)
		if err != nil {
			return nil, err
		}
		var wallList, wallBitmap int64
		var matchesList, matchesBitmap uint64
		for _, kernel := range []light.Intersection{light.HybridBlock, light.HybridBitmap} {
			serial, err := runKernelCell(g, p, bitmapDataset, kernel, 1)
			if err != nil {
				return nil, fmt.Errorf("%s %v serial: %w", name, kernel, err)
			}
			par, err := runKernelCell(g, p, bitmapDataset, kernel, 4)
			if err != nil {
				return nil, fmt.Errorf("%s %v 4T: %w", name, kernel, err)
			}
			if serial.Matches != par.Matches || serial.Nodes != par.Nodes ||
				serial.Comps != par.Comps || serial.Intersections != par.Intersections ||
				serial.Galloping != par.Galloping || serial.Elements != par.Elements ||
				serial.BitmapProbes != par.BitmapProbes {
				return nil, fmt.Errorf("%s/%v: determinism self-check failed: serial %+v vs 4T %+v", name, kernel, serial, par)
			}
			if kernel == light.HybridBitmap {
				if serial.BitmapProbes == 0 {
					return nil, fmt.Errorf("%s: HybridBitmap recorded zero bitmap probes on a hub graph", name)
				}
				wallBitmap, matchesBitmap = serial.WallNS, serial.Matches
			} else {
				if serial.BitmapProbes != 0 {
					return nil, fmt.Errorf("%s: list kernel recorded %d bitmap probes", name, serial.BitmapProbes)
				}
				wallList, matchesList = serial.WallNS, serial.Matches
			}
			rows = append(rows, serial, par)
		}
		if matchesList != matchesBitmap {
			return nil, fmt.Errorf("%s: HybridBitmap found %d matches, HybridBlock %d", name, matchesBitmap, matchesList)
		}
		fmt.Printf("bitmap section %s: HybridBlock %v, HybridBitmap %v (%.1f%% faster, advisory)\n",
			name, time.Duration(wallList), time.Duration(wallBitmap),
			100*(1-float64(wallBitmap)/float64(wallList)))
	}
	return rows, nil
}

// runCell measures one (pattern, workers) configuration of the main
// LIGHT section.
func runCell(g *light.Graph, p *light.Pattern, workers int) (metrics.BenchRow, error) {
	row, err := runKernelCell(g, p, benchDataset, light.HybridBlock, workers)
	if err != nil {
		return row, err
	}
	row.System = "LIGHT/serial"
	if workers > 1 {
		row.System = fmt.Sprintf("LIGHT/%dT", workers)
	}
	return row, nil
}

// runKernelCell measures one (pattern, kernel, workers) cell; the
// system name carries the kernel so bitmap rows gate separately.
func runKernelCell(g *light.Graph, p *light.Pattern, dataset string, kernel light.Intersection, workers int) (metrics.BenchRow, error) {
	res, err := light.Count(g, p, light.Options{Workers: workers, Intersection: kernel})
	if err != nil {
		return metrics.BenchRow{}, err
	}
	r := res.Report
	suffix := "serial"
	if workers > 1 {
		suffix = fmt.Sprintf("%dT", workers)
	}
	return metrics.BenchRow{
		Dataset:       dataset,
		Pattern:       p.Name(),
		System:        fmt.Sprintf("%v/%s", kernel, suffix),
		WallNS:        r.WallNS,
		Matches:       r.Matches,
		Nodes:         r.Nodes,
		Comps:         r.Comps,
		Intersections: r.Intersections,
		Galloping:     r.Galloping,
		Elements:      r.Elements,
		BitmapProbes:  r.BitmapProbes,
		MemoryBytes:   r.CandidateMemoryBytes,
	}, nil
}

// compareFiles gates fresh against baseline and returns the process
// exit code: 0 clean, 1 regression, 2 unreadable input.
func compareFiles(basePath, freshPath string, wallTol float64, advisoryTime bool) int {
	base, err := metrics.LoadBenchFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lightbench:", err)
		return 2
	}
	fresh, err := metrics.LoadBenchFile(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lightbench:", err)
		return 2
	}
	c := metrics.CompareBench(base, fresh, wallTol, wallSlack)
	for _, msg := range c.CounterRegressions {
		fmt.Printf("COUNTER REGRESSION: %s\n", msg)
	}
	for _, msg := range c.WallRegressions {
		if advisoryTime {
			fmt.Printf("wall regression (advisory): %s\n", msg)
		} else {
			fmt.Printf("WALL REGRESSION: %s\n", msg)
		}
	}
	if len(c.CounterRegressions) > 0 {
		fmt.Printf("bench gate: FAIL (%d counter regressions)\n", len(c.CounterRegressions))
		return 1
	}
	if len(c.WallRegressions) > 0 && !advisoryTime {
		fmt.Printf("bench gate: FAIL (%d wall-clock regressions)\n", len(c.WallRegressions))
		return 1
	}
	fmt.Printf("bench gate: OK (%d rows, fingerprint %s)\n", len(fresh.Rows), fresh.Fingerprint)
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightbench:", err)
	os.Exit(1)
}
