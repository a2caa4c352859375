package main

import (
	"testing"
	"time"

	"light/internal/gen"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:        "1.5m",
		1500 * time.Millisecond: "1.50s",
		2500 * time.Microsecond: "2.5ms",
		800 * time.Nanosecond:   "0µs",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestOutcomeCells(t *testing.T) {
	o := outcome{dur: time.Second, ints: 42}
	if o.timeCell() != "1.00s" || intCell(o) != "42" {
		t.Fatalf("cells: %q %q", o.timeCell(), intCell(o))
	}
	o.mark = "OOS"
	if o.timeCell() != "OOS" || intCell(o) != "OOS" {
		t.Fatal("failure mark not propagated")
	}
}

func TestSharedPlansUsePinnedOrders(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 1)
	p := pattern.P2()
	plans := sharedPlans(g, p)
	if len(plans) != 4 {
		t.Fatalf("plans = %d, want 4", len(plans))
	}
	for name, pl := range plans {
		for i, u := range pinnedOrders["P2"] {
			if pl.Pi[i] != u {
				t.Fatalf("%s: π = %v, want pinned %v", name, pl.Pi, pinnedOrders["P2"])
			}
		}
	}
	// All four must count identically.
	var want uint64
	first := true
	for name, pl := range plans {
		o := runPlan(g, pl, intersect.KindMerge, 0)
		if first {
			want, first = o.count, false
		} else if o.count != want {
			t.Fatalf("%s diverged: %d vs %d", name, o.count, want)
		}
	}
}

func TestPinnedOrdersAreValid(t *testing.T) {
	for name, pi := range pinnedOrders {
		p, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		po := pattern.SymmetryBreaking(p)
		if _, err := plan.Compile(p, po, pi, plan.ModeLIGHT); err != nil {
			t.Fatalf("pinned order for %s invalid: %v", name, err)
		}
	}
}

func TestConfigLoaders(t *testing.T) {
	c := config{scale: 1, datasets: []string{"yt-s"}, patterns: []string{"P1", "P3"}}
	ds := c.loadDatasets("lj-s")
	if len(ds) != 1 || ds[0].name != "yt-s" {
		t.Fatalf("datasets = %v", ds)
	}
	ps := c.loadPatterns("P2")
	if len(ps) != 2 || ps[1].NumEdges() != 6 {
		t.Fatalf("patterns override broken")
	}
	def := config{scale: 1}
	if got := def.loadPatterns("P2"); len(got) != 1 {
		t.Fatal("default patterns broken")
	}
}

// TestExperimentsRunOnFastSubset executes every experiment on the fast
// subset EXPERIMENTS.md recommends (yt-s, P2, 5 s per run), so `go test
// ./...` runs the figure code and does not merely compile it. Every cell
// must finish, and every system measured on a (dataset, pattern) cell
// must find the same number of matches.
func TestExperimentsRunOnFastSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all ten experiments (a few seconds)")
	}
	for name, fn := range experiments {
		t.Run(name, func(t *testing.T) {
			col := &collector{}
			fn(config{
				scale:    1,
				timeout:  5 * time.Second,
				workers:  4,
				spaceMB:  256,
				shuffle:  150 * time.Nanosecond,
				datasets: []string{"yt-s"},
				patterns: []string{"P2"},
				col:      col,
			})
			if len(col.rows) == 0 && name != "table2" && name != "estimator" {
				t.Fatal("recorded no row")
			}
			matches := map[string]uint64{}
			for _, r := range col.rows {
				if r.Mark != "" {
					t.Errorf("%s %s %s: %s within the 5s limit", r.Dataset, r.Pattern, r.System, r.Mark)
					continue
				}
				cell := r.Dataset + "|" + r.Pattern
				if m, ok := matches[cell]; ok && m != r.Matches {
					t.Errorf("%s %s: %d matches, another system found %d", cell, r.System, r.Matches, m)
				}
				matches[cell] = r.Matches
			}
		})
	}
}
