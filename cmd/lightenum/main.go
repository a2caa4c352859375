// Command lightenum counts (or lists) the subgraphs of a data graph
// isomorphic to a pattern, using any of the paper's algorithms.
//
// Usage:
//
//	lightenum -pattern P2 -graph path.txt [-algo LIGHT] [-workers 8]
//	          [-kernel HybridBitmap] [-timeout 60s] [-print 10] [-stats]
//	          [-checkpoint state.ckpt] [-resume state.ckpt]
//
// With -checkpoint, the run periodically persists its progress; if it
// is interrupted (Ctrl-C, SIGTERM, timeout), re-running with -resume
// continues from the saved state and reports the combined total.
//
// With -apply, an edge-update file is applied copy-on-write before the
// run: one update per line, "+ u v" adds an edge, "- u v" removes one,
// and a bare "u v" adds ('#'/'%' start comments). Vertex IDs use the
// loaded graph's numbering — the same IDs -print shows. Adding -delta
// also counts just the match delta the batch caused (gained, lost, net)
// before the full post-update count.
//
// The graph may be an edge-list file (.txt), a binary CSR file written
// by gengraph (.csr, optionally gzipped), or the name of a built-in
// synthetic dataset (yt-s, eu-s, lj-s, ot-s, uk-s, fs-s — optionally
// with -scale).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"light"
	"light/internal/gen"
	"light/internal/graph"
)

func main() {
	patName := flag.String("pattern", "triangle", "pattern name (P1..P7, triangle, cliqueK, cycleK, pathK, starK)")
	graphArg := flag.String("graph", "yt-s", "edge list file, .csr file, or built-in dataset name")
	scale := flag.Int("scale", 1, "scale for built-in datasets")
	algoName := flag.String("algo", "LIGHT", "algorithm: SE, LM, MSC, LIGHT")
	workers := flag.Int("workers", 1, "worker threads")
	kernel := flag.String("kernel", "", "intersection: Merge, MergeBlock, Galloping, Hybrid, HybridBlock, HybridBitmap (default: the library's)")
	timeout := flag.Duration("timeout", 0, "abort after this long (0 = unlimited)")
	printN := flag.Int("print", 0, "print the first N matches")
	outPath := flag.String("out", "", "stream all matches to this file (one line per match)")
	explain := flag.Bool("explain", false, "print the compiled plan and exit")
	stats := flag.Bool("stats", false, "print the full run report (counters, scheduler stats) as JSON")
	ckptPath := flag.String("checkpoint", "", "periodically save resumable progress to this file")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second, "how often to write the checkpoint")
	resumePath := flag.String("resume", "", "resume from a checkpoint file written by -checkpoint")
	memBudget := flag.String("mem-budget", "", "cap candidate-arena memory (bytes, or with K/M/G suffix); the run stops and exits 5 at the cap")
	batch := flag.Bool("batch", false, "run the whole P1..P7 catalog as one CountBatch, each pattern its own group (ignores -pattern)")
	applyPath := flag.String("apply", "", "apply an edge-update file ('+ u v' adds, '- u v' removes, bare 'u v' adds) before running")
	deltaCount := flag.Bool("delta", false, "with -apply: also count only the match delta the update batch caused")
	flag.Parse()

	g, err := loadGraph(*graphArg, *scale)
	if err != nil {
		fatal(err)
	}
	p, err := light.PatternByName(*patName)
	if err != nil {
		fatal(err)
	}
	opts := light.Options{
		Workers:            *workers,
		TimeLimit:          *timeout,
		CheckpointPath:     *ckptPath,
		CheckpointInterval: *ckptEvery,
		ResumeFrom:         *resumePath,
	}
	if opts.Algorithm, err = light.ParseAlgorithm(*algoName); err != nil {
		fatal(err)
	}
	if opts.Intersection, err = light.ParseIntersection(*kernel); err != nil {
		fatal(err)
	}
	if *memBudget != "" {
		if opts.MemoryBudget, err = parseBytes(*memBudget); err != nil {
			fatal(fmt.Errorf("-mem-budget: %w", err))
		}
	}

	if *deltaCount && *applyPath == "" {
		fatal(errors.New("-delta requires -apply"))
	}
	if *deltaCount && *batch {
		fatal(errors.New("-delta is incompatible with -batch (delta counting needs one pattern)"))
	}
	var from, to *light.Snapshot
	if *applyPath != "" {
		add, rem, err := readEdgeUpdates(*applyPath)
		if err != nil {
			fatal(err)
		}
		from = g.Snapshot()
		if to, err = g.ApplyEdges(add, rem); err != nil {
			fatal(err)
		}
		fmt.Printf("applied:    +%d/-%d update(s) from %s -> generation %d, %d delta edge(s)\n",
			len(add), len(rem), *applyPath, to.Generation(), to.DeltaEdges())
	}

	if *batch {
		fmt.Printf("data graph: %v\n", g)
		runBatch(g, opts, *stats)
		return
	}

	fmt.Printf("data graph: %v\npattern:    %v\nkernel:     %v\n", g, p, opts.Intersection)

	if *deltaCount {
		// Checkpoint/resume describe the full enumeration below, not the
		// delta pass, which runs on the overlay and cannot checkpoint.
		dopts := opts
		dopts.CheckpointPath, dopts.ResumeFrom = "", ""
		dr, err := light.CountDelta(g, p, from, to, dopts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("delta:      gained %d, lost %d, net %+d (generation %d -> %d, %v)\n",
			dr.Gained, dr.Lost, dr.Net, dr.FromGeneration, dr.ToGeneration,
			dr.Duration.Round(time.Microsecond))
		fmt.Printf("delta work: %d anchors (+%d/-%d edges), %d nodes expanded\n",
			dr.Anchors, dr.AddedEdges, dr.RemovedEdges, dr.Nodes)
	}

	if *explain {
		text, err := light.Explain(g, p, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}

	// Ctrl-C / SIGTERM cancel the run instead of killing the process, so
	// a -checkpoint run gets its final on-stop snapshot written before
	// exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var out *bufio.Writer
	var commitOut func() error
	if *outPath != "" {
		out, commitOut, err = atomicWriter(*outPath)
		if err != nil {
			fatal(err)
		}
	}

	var res light.Result
	if *printN > 0 || out != nil {
		shown := 0
		res, err = light.EnumerateContext(ctx, g, p, opts, func(m []light.VertexID) bool {
			if shown < *printN {
				fmt.Printf("  match %v\n", m)
				shown++
			}
			if out != nil {
				for i, v := range m {
					if i > 0 {
						out.WriteByte(' ') //lightvet:ignore hygiene -- bufio sticky error is checked at Flush
					}
					fmt.Fprintf(out, "%d", v) //lightvet:ignore hygiene -- bufio sticky error is checked at Flush
				}
				out.WriteByte('\n') //lightvet:ignore hygiene -- bufio sticky error is checked at Flush
			}
			return true
		})
	} else {
		res, err = light.CountContext(ctx, g, p, opts)
	}
	stopSignals()
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	// Resource sentinels keep their partial results and get distinct
	// exit codes + one-line stderr diagnostics (with the resume hint),
	// so wrappers and schedulers can react without parsing stdout.
	exitCode := 0
	switch {
	case errors.Is(err, light.ErrTimeLimit):
		exitCode = exitTimeLimit
		fmt.Fprintf(os.Stderr, "lightenum: time limit exceeded; partial results on stdout%s\n", resumeHint(*ckptPath))
	case errors.Is(err, light.ErrMemoryBudget):
		exitCode = exitMemoryBudget
		fmt.Fprintf(os.Stderr, "lightenum: memory budget %s exceeded; partial results on stdout%s\n", *memBudget, resumeHint(*ckptPath))
	default:
		if err != nil && !interrupted {
			fatal(err)
		}
	}
	if out != nil {
		if err := commitOut(); err != nil {
			fatal(err)
		}
	}
	if interrupted {
		fmt.Printf("interrupted:      partial results below (%v)\n", err)
		if *ckptPath != "" {
			fmt.Printf("resume with:      -resume %s\n", *ckptPath)
		}
	}
	fmt.Printf("matches:          %d\n", res.Matches)
	fmt.Printf("time:             %v\n", res.Duration.Round(time.Microsecond))
	fmt.Printf("order:            %v\n", res.Order)
	fmt.Printf("intersections:    %d (%.1f%% galloping)\n", res.Intersections, res.GallopingPercent)
	if res.Report != nil && res.Report.BitmapProbes > 0 {
		fmt.Printf("bitmap probes:    %d\n", res.Report.BitmapProbes)
	}
	fmt.Printf("candidate memory: %d bytes\n", res.CandidateMemoryBytes)
	if *stats && res.Report != nil {
		data, err := json.MarshalIndent(res.Report, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run report:\n%s\n", data)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// runBatch counts every catalog pattern against g in one CountBatch
// call: the patterns compile to distinct plans, so each is its own
// group, a plain count on the batch's one pool. Ctrl-C / SIGTERM cancel
// cleanly with partial results flagged.
func runBatch(g *light.Graph, opts light.Options, stats bool) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	names := light.CatalogNames()
	queries := make([]light.BatchQuery, len(names))
	for i, name := range names {
		p, err := light.PatternByName(name)
		if err != nil {
			fatal(err)
		}
		queries[i] = light.BatchQuery{Pattern: p}
	}
	bres, err := light.CountBatchContext(ctx, g, queries, opts)
	stopSignals()
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	exitCode := 0
	switch {
	case errors.Is(err, light.ErrTimeLimit):
		exitCode = exitTimeLimit
		fmt.Fprintln(os.Stderr, "lightenum: time limit exceeded; partial results on stdout")
	case errors.Is(err, light.ErrMemoryBudget):
		exitCode = exitMemoryBudget
		fmt.Fprintln(os.Stderr, "lightenum: memory budget exceeded; partial results on stdout")
	default:
		if err != nil && !interrupted {
			fatal(err)
		}
	}
	if interrupted {
		fmt.Printf("interrupted: partial results below (%v)\n", err)
	}
	fmt.Printf("batch:       %d queries in %d group(s), %d worker(s)\n",
		len(bres.Queries), bres.Groups, bres.Workers)
	for i, q := range bres.Queries {
		fmt.Printf("%-9s matches: %-14d nodes: %-12d intersections: %d\n",
			names[i], q.Matches, q.Nodes, q.Intersections)
	}
	if len(bres.Queries) > 0 {
		fmt.Printf("time:        %v (shared batch wall clock)\n", bres.Queries[0].Duration.Round(time.Microsecond))
	}
	for _, d := range bres.Degradations {
		fmt.Printf("degraded:    %s\n", d)
	}
	if stats {
		reports := make(map[string]*light.RunReport, len(bres.Queries))
		for i, q := range bres.Queries {
			reports[names[i]] = q.Report
		}
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run reports:\n%s\n", data)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// Exit codes beyond the conventional 0 (success), 1 (generic error),
// and 2 (flag misuse): each resource sentinel gets its own so callers
// can distinguish "ran out of time" from "blew the memory budget"
// without parsing output.
const (
	exitTimeLimit    = 3
	exitMemoryBudget = 5
)

// resumeHint names the checkpoint to resume from, when there is one.
func resumeHint(ckptPath string) string {
	if ckptPath == "" {
		return ""
	}
	return fmt.Sprintf("; resume with -resume %s", ckptPath)
}

// parseBytes parses a byte count with an optional K/M/G (binary)
// suffix: "512", "64K", "512M", "2G".
func parseBytes(s string) (int64, error) {
	mult, digits := int64(1), s
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, digits = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, digits = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, digits = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid byte count %q", s)
	}
	return n * mult, nil
}

// atomicWriter opens a buffered writer backed by a temp file next to
// path. commit flushes, syncs, closes, and renames the temp file over
// path, so readers never observe a partially written match list; any
// failure leaves path untouched and removes the temp file.
func atomicWriter(path string) (*bufio.Writer, func() error, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".out-*")
	if err != nil {
		return nil, nil, err
	}
	tmpName := f.Name()
	bw := bufio.NewWriterSize(f, 1<<20)
	commit := func() error {
		fail := func(err error) error {
			f.Close()          //lightvet:ignore hygiene -- already failing; best-effort cleanup
			os.Remove(tmpName) //lightvet:ignore hygiene -- already failing; best-effort cleanup
			return err
		}
		if err := bw.Flush(); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			os.Remove(tmpName) //lightvet:ignore hygiene -- already failing; best-effort cleanup
			return err
		}
		if err := os.Rename(tmpName, path); err != nil {
			os.Remove(tmpName) //lightvet:ignore hygiene -- already failing; best-effort cleanup
			return err
		}
		return nil
	}
	return bw, commit, nil
}

// readEdgeUpdates parses an edge-update file: one update per line,
// "+ u v" adds an edge, "- u v" removes one, a bare "u v" adds; '#' or
// '%' start comment lines. IDs are in the loaded graph's numbering.
func readEdgeUpdates(path string) (add, rem [][2]light.VertexID, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		op := "+"
		if fields[0] == "+" || fields[0] == "-" {
			op, fields = fields[0], fields[1:]
		}
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("%s: line %d: want '[+|-] u v', got %q", path, lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: line %d: bad vertex %q: %v", path, lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: line %d: bad vertex %q: %v", path, lineNo, fields[1], err)
		}
		e := [2]light.VertexID{light.VertexID(u), light.VertexID(v)}
		if op == "-" {
			rem = append(rem, e)
		} else {
			add = append(add, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return add, rem, nil
}

func loadGraph(arg string, scale int) (*light.Graph, error) {
	if strings.HasSuffix(arg, ".csr") || strings.HasSuffix(arg, ".csr.gz") {
		g, err := graph.LoadCSR(arg)
		if err != nil {
			return nil, err
		}
		return wrap(graph.Reorder(g)), nil
	}
	if _, err := os.Stat(arg); err == nil {
		return light.LoadEdgeList(arg)
	}
	d, err := gen.ByName(arg, scale)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a file nor a dataset: %v", arg, err)
	}
	return wrap(d.Make()), nil
}

// wrap adapts an internal graph to the public type via its edge list.
// cmd packages live in the same module, but the public constructor keeps
// the path honest.
func wrap(g *graph.Graph) *light.Graph {
	edges := make([][2]light.VertexID, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(light.VertexID(v)) {
			if light.VertexID(v) < w {
				edges = append(edges, [2]light.VertexID{light.VertexID(v), w})
			}
		}
	}
	return light.NewGraph(g.NumVertices(), edges)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightenum:", err)
	os.Exit(1)
}
