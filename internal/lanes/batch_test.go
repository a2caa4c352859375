package lanes

import (
	"context"
	"testing"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/metrics"
	"light/internal/parallel"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestBatchRunParity runs a mixed-catalog batch — several patterns,
// several lane specs per pattern — through the full parallel scheduler
// at 1 and 3 workers, and checks every query's attributed counters
// against its solo sequential run. This is the end-to-end parity gate:
// grouping, lane packing, per-chunk lane counters, and the recorder fold
// all sit on this path.
func TestBatchRunParity(t *testing.T) {
	g := gen.BarabasiAlbert(150, 4, 17)
	g.BuildHubIndex(3)
	var firstHalf []graph.VertexID
	for v := 0; v < g.NumVertices()/2; v++ {
		firstHalf = append(firstHalf, graph.VertexID(v))
	}
	mod3 := func(u int, v graph.VertexID) bool { return v%3 != 0 }

	var queries []Query
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.P2(), pattern.P4()} {
		pl := compile(t, p)
		queries = append(queries,
			Query{Plan: pl},
			Query{Plan: pl, Spec: Spec{MinDegree: 4}},
			Query{Plan: pl, Spec: Spec{Roots: firstHalf, Filter: mod3}},
		)
	}

	want := make([]engine.LaneCounts, len(queries))
	for i, q := range queries {
		solo, err := engine.New(g, q.Plan, engine.Options{
			Filter: refFilter(g, q.Plan, q.Spec),
		}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = engine.LaneCounts{Matches: solo.Matches, Nodes: solo.Nodes, Comps: solo.Comps, Stats: solo.Stats}
	}

	for _, workers := range []int{1, 3} {
		recs := make([]*metrics.Recorder, len(queries))
		for i := range recs {
			recs[i] = metrics.NewRecorder()
		}
		res, err := Run(context.Background(), g, queries, parallel.Options{Workers: workers}, recs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Jobs) != 3 {
			t.Fatalf("workers=%d: %d groups, want 3", workers, len(res.Jobs))
		}
		for i := range queries {
			if res.PerQuery[i] != want[i] {
				t.Errorf("workers=%d query=%d: batched %+v, sequential %+v",
					workers, i, res.PerQuery[i], want[i])
			}
			// The fold must give each query an individually-reportable
			// recorder snapshot equal to its attributed counters.
			if n := recs[i].Get(metrics.EngineMatches); n != want[i].Matches {
				t.Errorf("workers=%d query=%d: recorder matches %d, want %d", workers, i, n, want[i].Matches)
			}
			if n := recs[i].Get(metrics.IntersectOps); n != want[i].Stats.Intersections {
				t.Errorf("workers=%d query=%d: recorder intersections %d, want %d", workers, i, n, want[i].Stats.Intersections)
			}
			merges := want[i].Stats.Intersections - want[i].Stats.Galloping
			if n := recs[i].Get(metrics.IntersectMerge); n != merges {
				t.Errorf("workers=%d query=%d: recorder merges %d, want %d", workers, i, n, merges)
			}
		}
	}
}

// TestBatchRunValidation pins the batch preconditions.
func TestBatchRunValidation(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 1)
	pl := compile(t, pattern.Triangle())
	ctx := context.Background()

	if res, err := Run(ctx, g, nil, parallel.Options{}, nil); err != nil || len(res.Jobs) != 0 {
		t.Errorf("empty batch: %+v, %v", res, err)
	}
	if _, err := Run(ctx, g, []Query{{}}, parallel.Options{}, nil); err == nil {
		t.Error("nil plan accepted")
	}
	set, _ := NewSet(g.NumVertices(), []Spec{{}})
	if _, err := Run(ctx, g, []Query{{Plan: pl}}, parallel.Options{
		Engine: engine.Options{Lanes: set},
	}, nil); err == nil {
		t.Error("pre-set Engine.Lanes accepted")
	}
	if _, err := Run(ctx, g, []Query{{Plan: pl}}, parallel.Options{
		Engine: engine.Options{Filter: func(u int, v graph.VertexID) bool { return true }},
	}, nil); err == nil {
		t.Error("batch-wide Engine.Filter accepted")
	}
	if _, err := Run(ctx, g, []Query{{Plan: pl}, {Plan: pl}}, parallel.Options{}, make([]*metrics.Recorder, 1)); err == nil {
		t.Error("recorder count mismatch accepted")
	}
}

// TestBatchRunCancellation: a cancelled context stops the batch with
// Stopped set and the context's error.
func TestBatchRunCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(200, 5, 3)
	pl := compile(t, pattern.P4())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, g, []Query{{Plan: pl}}, parallel.Options{Workers: 2}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if !res.Stopped {
		t.Fatal("Stopped not set")
	}
}

// TestBatchCompatKeyGroups: plans compiled from the same pattern under
// the same mode share a CompatKey; distinct patterns never do. This is
// the grouping invariant the shared traversal's soundness rests on.
func TestBatchCompatKeyGroups(t *testing.T) {
	seen := map[string]string{}
	for _, p := range pattern.Catalog() {
		pl1, pl2 := compile(t, p), compile(t, p)
		if pl1.CompatKey() != pl2.CompatKey() {
			t.Errorf("%s: recompile changed CompatKey", p.Name())
		}
		if prev, dup := seen[pl1.CompatKey()]; dup {
			t.Errorf("%s and %s share a CompatKey", p.Name(), prev)
		}
		seen[pl1.CompatKey()] = p.Name()
	}
	// Different modes of the same pattern compile different σ/ops and
	// must not be lane-grouped.
	p := pattern.P4()
	po := pattern.SymmetryBreaking(p)
	pi := plan.ConnectedOrders(p, po)[0]
	light, err := plan.Compile(p, po, pi, plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	se, err := plan.Compile(p, po, pi, plan.ModeSE)
	if err != nil {
		t.Fatal(err)
	}
	if light.CompatKey() == se.CompatKey() {
		t.Error("LIGHT and SE plans share a CompatKey")
	}
}
