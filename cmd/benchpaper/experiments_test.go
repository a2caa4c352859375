package main

import (
	"io"
	"os"
	"strings"
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
// ./...` runs the figure code and does not merely compile it. Every
// experiment must print a yt-s row, and no cell of one may carry a
// failure mark (INF or OOS).
func TestExperimentsRunOnFastSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all ten experiments (a few seconds)")
	}
	for name, fn := range experiments {
		t.Run(name, func(t *testing.T) {
			out := captureStdout(t, func() {
				fn(config{
					scale:    1,
					timeout:  5 * time.Second,
					workers:  4,
					spaceMB:  256,
					shuffle:  150 * time.Nanosecond,
					datasets: []string{"yt-s"},
					patterns: []string{"P2"},
				})
			})
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				if !strings.HasPrefix(line, "yt-s") {
					continue
				}
				rows++
				for _, cell := range strings.Fields(line) {
					if cell == "INF" || cell == "OOS" {
						t.Errorf("%s within the 5s limit: %s", cell, line)
					}
				}
			}
			if rows == 0 {
				t.Fatalf("printed no yt-s row:\n%s", out)
			}
		})
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // the pipe only fails when closed; w.Close ends it
		done <- b
	}()
	defer func() { os.Stdout = stdout }()
	fn()
	w.Close()
	return string(<-done)
}
