// Command benchpaper regenerates every table and figure of the paper's
// evaluation (Section VIII) on the synthetic dataset suite. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers differ (different hardware, scaled datasets, simulated
// comparators) but the shape — who wins, by roughly what factor, where
// failures occur — is the reproduction target. See EXPERIMENTS.md.
//
// Usage:
//
//	benchpaper -exp fig4            # one experiment
//	benchpaper -exp all -scale 2    # everything, bigger datasets
//
// Experiments: table2 fig4 fig5 fig6 table3 fig7 table4 table5 fig8 all,
// and the supplementary estimator and regret, which all does not run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

type config struct {
	scale    int
	timeout  time.Duration
	workers  int
	spaceMB  int64
	shuffle  time.Duration
	twintwig bool
	patterns []string
	datasets []string
}

var experiments = map[string]func(config){
	"table2":    table2,
	"fig4":      fig4,
	"fig5":      fig5,
	"fig6":      fig6,
	"table3":    table3,
	"fig7":      fig7,
	"table4":    table4,
	"table5":    table5,
	"fig8":      fig8,
	"estimator": estimator,
	"regret":    regret,
}

// order is what -exp all runs, in the paper's order.
var order = []string{"table2", "fig4", "fig5", "fig6", "table3", "fig7", "table4", "table5", "fig8"}

func main() {
	exp := flag.String("exp", "all", "experiment: table2 fig4 fig5 fig6 table3 fig7 table4 table5 fig8 estimator regret all")
	scale := flag.Int("scale", 1, "dataset size multiplier")
	timeout := flag.Duration("timeout", 60*time.Second, "per-run time limit (the paper's OOT threshold)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max worker threads for the parallel experiments")
	spaceMB := flag.Int64("space", 256, "space budget in MiB for the BFS-join simulators (the paper's OOS threshold)")
	shuffle := flag.Duration("shuffle", 150*time.Nanosecond, "simulated shuffle cost per intermediate tuple for SEED/CRYSTAL")
	twintwig := flag.Bool("twintwig", false, "add a TwinTwig-sim column to fig8")
	pats := flag.String("patterns", "", "comma-separated pattern subset (default: experiment-specific)")
	data := flag.String("datasets", "", "comma-separated dataset subset (default: experiment-specific)")
	flag.Parse()

	cfg := config{
		scale:    *scale,
		timeout:  *timeout,
		workers:  *workers,
		spaceMB:  *spaceMB,
		shuffle:  *shuffle,
		twintwig: *twintwig,
	}
	if *pats != "" {
		cfg.patterns = strings.Split(*pats, ",")
	}
	if *data != "" {
		cfg.datasets = strings.Split(*data, ",")
	}

	if *exp == "all" {
		for _, name := range order {
			experiments[name](cfg)
			fmt.Println()
		}
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchpaper: unknown experiment %q (have %v, all)\n", *exp, order)
		os.Exit(1)
	}
	fn(cfg)
}
