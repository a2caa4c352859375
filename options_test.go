package light

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestCountOptionMatrix makes Count's option surface total: every
// Options field has a cell, on a clean graph and on one with pending
// edge deltas, and each cell either counts what an independent
// reference counts or fails with ErrUnsupportedOption. The reference is
// the brute-force counter, or, for a filtered cell, SE with the Merge
// kernel on one worker under the same Filter. A field added without a
// cell fails the test. The Filter cells run on several workers at once,
// so under -race -cpu 2,4 they are the evidence that a filter called
// concurrently from the innermost loop is safe.
func TestCountOptionMatrix(t *testing.T) {
	notMultipleOf5 := func(u int, v VertexID) bool { return v%5 != 0 }
	for _, dirty := range []bool{false, true} {
		g := GenerateBarabasiAlbert(200, 5, 9)
		if dirty {
			if _, err := g.ApplyEdges([][2]VertexID{{0, 199}, {1, 150}}, [][2]VertexID{{199, 198}}); err != nil {
				t.Fatal(err)
			}
		}
		p := mustPattern(t, "P2")
		want := bruteCount(g.Snapshot(), p)
		ckpt := filepath.Join(t.TempDir(), "count.ckpt")
		cases := []struct {
			field       string
			opts        Options
			unsupported bool // on this graph
		}{
			{"Algorithm", Options{Algorithm: MSC}, false},
			{"Intersection", Options{Intersection: Galloping}, false},
			{"Workers", Options{Workers: 3}, false},
			{"TimeLimit", Options{TimeLimit: time.Minute}, false},
			{"Filter", Options{Filter: notMultipleOf5, Workers: 2}, false},
			{"Filter", Options{Filter: notMultipleOf5, Workers: 4, Intersection: HybridBlock}, false},
			// CheckpointPath writes the file ResumeFrom reads back.
			{"CheckpointPath", Options{CheckpointPath: ckpt}, dirty},
			{"CheckpointInterval", Options{CheckpointInterval: time.Hour}, false},
			{"ResumeFrom", Options{ResumeFrom: ckpt}, dirty},
			{"Governor", Options{Workers: 2, Governor: NewGovernor(GovernorConfig{Slots: 2})}, false},
			{"MemoryBudget", Options{MemoryBudget: 1 << 30}, false},
			{"AdmissionTimeout", Options{Governor: NewGovernor(GovernorConfig{Slots: 1}), AdmissionTimeout: time.Minute}, false},
			{"Snapshot", Options{Snapshot: g.Snapshot()}, false},
		}
		covered := map[string]bool{}
		for _, c := range cases {
			covered[c.field] = true
			res, err := Count(g, p, c.opts)
			if c.unsupported {
				if !errors.Is(err, ErrUnsupportedOption) {
					t.Errorf("dirty=%v %s: err = %v, want ErrUnsupportedOption", dirty, c.field, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("dirty=%v %s: %v", dirty, c.field, err)
				continue
			}
			expect := want
			if c.opts.Filter != nil {
				ref, err := Count(g, p, Options{Algorithm: SE, Intersection: Merge, Filter: c.opts.Filter})
				if err != nil {
					t.Fatal(err)
				}
				if expect = ref.Matches; expect == 0 || expect == want {
					t.Fatalf("dirty=%v: the filter keeps %d of %d matches; the cell would show nothing", dirty, expect, want)
				}
			}
			if res.Matches != expect || res.Report == nil {
				t.Errorf("dirty=%v %s: %d matches (report %v), want %d", dirty, c.field, res.Matches, res.Report != nil, expect)
			}
			if c.opts.Governor != nil && res.Report.SlotsGranted < 1 {
				t.Errorf("dirty=%v %s: governed run reports SlotsGranted = %d", dirty, c.field, res.Report.SlotsGranted)
			}
		}
		for i, typ := 0, reflect.TypeOf(Options{}); i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; !covered[name] {
				t.Errorf("Options.%s has no cell in the Count option matrix", name)
			}
		}
	}
}

// TestUnsupportedOptionsAreTyped: every dirty-snapshot rejection and
// every option an entry point refuses wraps ErrUnsupportedOption.
func TestUnsupportedOptionsAreTyped(t *testing.T) {
	g := GenerateBarabasiAlbert(60, 3, 4)
	p := triangles(t)
	snap := g.Snapshot()
	if _, err := g.ApplyEdges([][2]VertexID{{0, 59}}, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"SaveCSR/dirty", func() error { return g.SaveCSR(filepath.Join(dir, "g.csr")) }},
		{"Count/dirty/CheckpointPath", func() error {
			_, err := Count(g, p, Options{CheckpointPath: filepath.Join(dir, "ck")})
			return err
		}},
		{"Count/dirty/ResumeFrom", func() error {
			_, err := Count(g, p, Options{ResumeFrom: filepath.Join(dir, "ck")})
			return err
		}},
		{"CountBatch/Filter", func() error {
			_, err := CountBatch(g, []BatchQuery{{Pattern: p}}, Options{Filter: func(int, VertexID) bool { return true }})
			return err
		}},
		{"CountDelta/Snapshot", func() error {
			_, err := CountDelta(g, p, snap, g.Snapshot(), Options{Snapshot: snap})
			return err
		}},
	} {
		if err := c.call(); !errors.Is(err, ErrUnsupportedOption) {
			t.Errorf("%s: err = %v, want ErrUnsupportedOption", c.name, err)
		}
	}
}
