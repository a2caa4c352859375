package light

import (
	"context"
	"testing"
)

// TestCountBatchCatalogParity runs the whole pattern catalog as one
// batch — each pattern at two degree thresholds — and checks every
// query's count and engine counters against its own sequential Count
// with the equivalent public Filter. This is the public-API face of
// the lane parity gate.
func TestCountBatchCatalogParity(t *testing.T) {
	g := GenerateBarabasiAlbert(150, 4, 5)
	var queries []BatchQuery
	var refs []Options
	for _, name := range CatalogNames() {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, minDeg := range []int{0, 5} {
			queries = append(queries, BatchQuery{Pattern: p, MinDegree: minDeg})
			// Lanes walk every level to the leaves, and so does a
			// filtered Count, even when the filter accepts everything.
			d := minDeg
			refs = append(refs, Options{Filter: func(u int, v VertexID) bool { return g.Degree(v) >= d }})
		}
	}
	for _, workers := range []int{1, 4} {
		bres, err := CountBatch(g, queries, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bres.Groups != len(CatalogNames()) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, bres.Groups, len(CatalogNames()))
		}
		if len(bres.Queries) != len(queries) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(bres.Queries), len(queries))
		}
		for i, q := range queries {
			ref := refs[i]
			solo, err := Count(g, q.Pattern, ref)
			if err != nil {
				t.Fatal(err)
			}
			got := bres.Queries[i]
			if got.Matches != solo.Matches {
				t.Errorf("workers=%d %s/minDeg=%d: batch %d matches, sequential %d",
					workers, q.Pattern.Name(), q.MinDegree, got.Matches, solo.Matches)
			}
			if got.Nodes != solo.Nodes || got.Intersections != solo.Intersections {
				t.Errorf("workers=%d %s/minDeg=%d: batch nodes/ints %d/%d, sequential %d/%d",
					workers, q.Pattern.Name(), q.MinDegree, got.Nodes, got.Intersections, solo.Nodes, solo.Intersections)
			}
			if got.Report == nil {
				t.Fatalf("query %d: nil report", i)
			}
			if got.Report.Matches != solo.Matches || got.Report.Comps != solo.Report.Comps ||
				got.Report.Elements != solo.Report.Elements {
				t.Errorf("workers=%d %s/minDeg=%d: report counters diverge: %+v vs %+v",
					workers, q.Pattern.Name(), q.MinDegree, got.Report, solo.Report)
			}
			if len(got.Order) == 0 || got.Duration <= 0 {
				t.Errorf("query %d: metadata missing: %+v", i, got)
			}
		}
	}
}

// TestCountBatchRootsAndFilter: per-query root sets and filters narrow
// exactly like their sequential Filter equivalents.
func TestCountBatchRootsAndFilter(t *testing.T) {
	g := GenerateBarabasiAlbert(120, 3, 9)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	var evens []VertexID
	for v := 0; v < g.NumVertices(); v += 2 {
		evens = append(evens, VertexID(v))
	}
	noMod5 := func(u int, v VertexID) bool { return v%5 != 0 }
	queries := []BatchQuery{
		{Pattern: p},
		{Pattern: p, Roots: evens},
		{Pattern: p, Filter: noMod5},
		{Pattern: p, Roots: evens, MinDegree: 3, Filter: noMod5},
	}
	bres, err := CountBatch(g, queries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bres.Groups != 1 {
		t.Fatalf("%d groups for one pattern, want 1", bres.Groups)
	}

	base, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bres.Queries[0].Matches != base.Matches {
		t.Errorf("unrestricted lane: %d, want %d", bres.Queries[0].Matches, base.Matches)
	}
	inEvens := make(map[VertexID]bool)
	for _, v := range evens {
		inEvens[v] = true
	}
	root := base.Order[0]
	for i, ref := range []func(u int, v VertexID) bool{
		nil,
		func(u int, v VertexID) bool { return u != root || inEvens[v] },
		noMod5,
		func(u int, v VertexID) bool {
			return (u != root || inEvens[v]) && g.Degree(v) >= 3 && noMod5(u, v)
		},
	} {
		solo, err := Count(g, p, Options{Filter: ref})
		if err != nil {
			t.Fatal(err)
		}
		if bres.Queries[i].Matches != solo.Matches || bres.Queries[i].Nodes != solo.Nodes {
			t.Errorf("query %d: batch %d/%d, sequential %d/%d",
				i, bres.Queries[i].Matches, bres.Queries[i].Nodes, solo.Matches, solo.Nodes)
		}
	}
}

func TestCountBatchValidation(t *testing.T) {
	g := GenerateComplete(8)
	p, _ := PatternByName("triangle")
	if _, err := CountBatch(g, []BatchQuery{{Pattern: p}}, Options{
		Filter: func(u int, v VertexID) bool { return true },
	}); err == nil {
		t.Error("Options.Filter accepted")
	}
	if _, err := CountBatch(g, []BatchQuery{{Pattern: p}}, Options{CheckpointPath: "x"}); err == nil {
		t.Error("CheckpointPath accepted")
	}
	if _, err := CountBatch(g, []BatchQuery{{}}, Options{}); err == nil {
		t.Error("nil pattern accepted")
	}
	if bres, err := CountBatch(g, nil, Options{}); err != nil || len(bres.Queries) != 0 {
		t.Errorf("empty batch: %+v, %v", bres, err)
	}
}

// TestCountBatchGoverned: a governed batch takes one admission grant
// covering every group and reports it.
func TestCountBatchGoverned(t *testing.T) {
	g := GenerateBarabasiAlbert(100, 3, 2)
	gov := NewGovernor(GovernorConfig{Slots: 2})
	var queries []BatchQuery
	for _, name := range []string{"P1", "P2", "triangle"} {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, BatchQuery{Pattern: p})
	}
	bres, err := CountBatch(g, queries, Options{Workers: 4, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if bres.Workers > 2 {
		t.Fatalf("governed batch ran %d workers over a 2-slot governor", bres.Workers)
	}
	for i, q := range queries {
		solo, err := Count(g, q.Pattern, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if bres.Queries[i].Matches != solo.Matches {
			t.Errorf("%s: governed batch %d, want %d", q.Pattern.Name(), bres.Queries[i].Matches, solo.Matches)
		}
		if bres.Queries[i].Report.SlotsGranted != 0 {
			t.Errorf("per-query report claims its own admission grant")
		}
	}
}

// TestCountBatchContextCancel: cancellation surfaces the context error
// with partial results flagged.
func TestCountBatchContextCancel(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 5, 7)
	p, _ := PatternByName("P4")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bres, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: p}}, Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	for _, q := range bres.Queries {
		if !q.Stopped {
			t.Fatal("partial result not flagged Stopped")
		}
	}
}
