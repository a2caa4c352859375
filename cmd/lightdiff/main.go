// Command lightdiff runs the differential correctness harness: random
// (pattern, data graph) cases from several generator families, each
// checked through the full oracle matrix — an independent brute-force
// reference, the BFS-join and worst-case-optimal baselines, and the
// LIGHT engine serial + on the parallel pool under every kernel,
// count-only or visitor, and DegreeFilter combination, plus a
// kill-and-resume checkpoint round-trip, a lane-batched pass (root-window and
// mixed-spec batches, per-lane counters vs sequential references), and
// an edge-delta pass (a seed-derived mutation batch applied
// copy-on-write, checked against a fresh CSR rebuild and the CountDelta
// identity). On a discrepancy it shrinks the case to a minimal repro,
// prints it as a ready-to-paste Go test, and exits 1.
//
// Usage:
//
//	lightdiff -cases 200                 # CI smoke configuration
//	lightdiff -cases 5000 -seed 99       # nightly soak
//	lightdiff -families star,ties -v     # adversarial families only
//	lightdiff -quick                     # trimmed matrix (fast triage)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"light/internal/diffcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cases    = fs.Int("cases", 200, "number of executed (non-skipped) cases to run")
		seed     = fs.Int64("seed", 1, "base seed; case i of family f uses a seed derived from it")
		families = fs.String("families", strings.Join(diffcheck.Families, ","), "comma-separated generator families")
		quick    = fs.Bool("quick", false, "run the trimmed oracle matrix instead of the full one")
		workers  = fs.Int("workers", 3, "workers for the parallel oracle runs")
		maxEmb   = fs.Uint64("max-embeddings", 300000, "brute-force reference cap; larger cases are skipped")
		laneOrc  = fs.Bool("lanes", true, "run the lane-batch oracle stage even with -quick")
		deltaOrc = fs.Bool("delta", true, "run the edge-delta oracle stage even with -quick")
		verbose  = fs.Bool("v", false, "print one line per case")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fams := strings.Split(*families, ",")
	for _, f := range fams {
		known := false
		for _, k := range diffcheck.Families {
			known = known || f == k
		}
		if !known {
			fmt.Fprintf(stderr, "lightdiff: unknown family %q (known: %s)\n", f, strings.Join(diffcheck.Families, ","))
			return 2
		}
	}
	cfg := diffcheck.Config{Quick: *quick, Workers: *workers, MaxEmbeddings: *maxEmb, Lanes: *laneOrc, Delta: *deltaOrc}

	start := time.Now()
	executed, skipped, checks := 0, 0, 0
	// Attempt cap: skipped (reference-capped) cases don't count toward
	// -cases, but a pathological flag combination must still terminate.
	for attempt := 0; executed < *cases && attempt < 4*(*cases)+100; attempt++ {
		fam := fams[attempt%len(fams)]
		caseSeed := *seed + int64(attempt)*1000003
		c, err := diffcheck.GenerateCase(fam, caseSeed)
		if err != nil {
			fmt.Fprintf(stderr, "lightdiff: %v\n", err)
			return 2
		}
		out, d := diffcheck.RunCase(c, cfg)
		if d != nil {
			fmt.Fprintf(stderr, "lightdiff: DISCREPANCY after %d cases:\n%v\n\nshrinking...\n\n", executed, d)
			min := diffcheck.ShrinkDiscrepancy(d, cfg)
			fmt.Fprintf(stderr, "minimal repro (paste into internal/diffcheck as a regression test):\n\n%s\n", diffcheck.ReproTest(min))
			return 1
		}
		if out.Skipped {
			skipped++
			if *verbose {
				fmt.Fprintf(stdout, "skip %-10s seed=%-12d %s\n", fam, caseSeed, out.Reason)
			}
			continue
		}
		executed++
		checks += out.Checks
		if *verbose {
			fmt.Fprintf(stdout, "ok   %-10s seed=%-12d ref=%-8d checks=%d\n", fam, caseSeed, out.Ref, out.Checks)
		}
	}
	if executed < *cases {
		fmt.Fprintf(stderr, "lightdiff: only %d of %d cases executed (%d skipped) — lower -max-embeddings pressure or case count\n",
			executed, *cases, skipped)
		return 2
	}
	fmt.Fprintf(stdout, "lightdiff: %d cases across %d families, %d oracle comparisons, %d skipped, 0 discrepancies (%.1fs)\n",
		executed, len(fams), checks, skipped, time.Since(start).Seconds())
	return 0
}
