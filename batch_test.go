package light

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"light/internal/pattern"
	"light/internal/plan"
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

// TestCountBatchRootsAndFilter: per-query root sets and degree
// thresholds narrow exactly like their sequential Filter equivalents.
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
	queries := []BatchQuery{
		{Pattern: p},
		{Pattern: p, Roots: evens},
		{Pattern: p, MinDegree: 4},
		{Pattern: p, Roots: evens, MinDegree: 3},
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
		func(u int, v VertexID) bool { return g.Degree(v) >= 4 },
		func(u int, v VertexID) bool { return (u != root || inEvens[v]) && g.Degree(v) >= 3 },
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

// TestCountBatchLoneQueryIsCount: a query whose plan no other query
// shares, with no Roots and no MinDegree, runs as a plain Count — its
// report carries exactly Count's engine counters, counted tail
// included, at any worker count.
func TestCountBatchLoneQueryIsCount(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 3)
	var queries []BatchQuery
	for _, name := range CatalogNames() {
		queries = append(queries, BatchQuery{Pattern: mustPattern(t, name)})
	}
	for _, workers := range []int{1, 2} {
		opts := Options{Workers: workers}
		bres, err := CountBatch(g, queries, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bres.Groups != len(queries) {
			t.Fatalf("workers=%d: %d groups for %d distinct patterns", workers, bres.Groups, len(queries))
		}
		for i, q := range queries {
			solo, err := Count(g, q.Pattern, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, want := reportCounters(bres.Queries[i].Report), reportCounters(solo.Report)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d %s: batch counters %v, Count %v", workers, q.Pattern.Name(), got, want)
			}
			if bres.Queries[i].Intersections != solo.Intersections || bres.Queries[i].Nodes != solo.Nodes {
				t.Errorf("workers=%d %s: result nodes/ints %d/%d, Count %d/%d", workers, q.Pattern.Name(),
					bres.Queries[i].Nodes, bres.Queries[i].Intersections, solo.Nodes, solo.Intersections)
			}
		}
	}
}

// TestBatchRunParity runs a mixed batch — several patterns, several
// narrowings per pattern — at 1 and 3 workers, and checks every query's
// attributed counters against its solo run under the equivalent
// Filter. Grouping, lane packing and per-chunk lane counters all sit on
// this path.
func TestBatchRunParity(t *testing.T) {
	g := GenerateBarabasiAlbert(150, 4, 17)
	n := g.NumVertices()
	var firstHalf []VertexID
	for v := 0; v < n/2; v++ {
		firstHalf = append(firstHalf, VertexID(v))
	}
	var queries []BatchQuery
	for _, name := range []string{"triangle", "P2", "P4"} {
		p := mustPattern(t, name)
		queries = append(queries,
			BatchQuery{Pattern: p},
			BatchQuery{Pattern: p, MinDegree: 4},
			BatchQuery{Pattern: p, Roots: firstHalf, MinDegree: 2},
		)
	}
	for _, workers := range []int{1, 3} {
		bres, err := CountBatch(g, queries, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bres.Groups != 3 {
			t.Fatalf("workers=%d: %d groups, want 3", workers, bres.Groups)
		}
		for i, q := range queries {
			root, minDeg, narrowRoots := bres.Queries[i].Order[0], q.MinDegree, q.Roots != nil
			// A lane walks every level to the leaves, and so does a
			// filtered Count, even when the filter accepts everything.
			solo, err := Count(g, q.Pattern, Options{Filter: func(u int, v VertexID) bool {
				return (!narrowRoots || u != root || int(v) < n/2) && g.Degree(v) >= minDeg
			}})
			if err != nil {
				t.Fatal(err)
			}
			got, want := reportCounters(bres.Queries[i].Report), reportCounters(solo.Report)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d query=%d: batched %v, sequential %v", workers, i, got, want)
			}
		}
	}
}

// TestBatchRunCancellation: a context cancelled mid-run stops a batch of
// lane groups and plain jobs with every query Stopped and the context's
// error. The batch would run for minutes on K80 (over a billion houses),
// so the cancel lands after its plans are chosen, in the run.
func TestBatchRunCancellation(t *testing.T) {
	g := completeGraph(80)
	p4 := mustPattern(t, "P4")
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(20*time.Millisecond, cancel).Stop()
	bres, err := CountBatchContext(ctx, g, []BatchQuery{
		{Pattern: p4}, {Pattern: p4, MinDegree: 3}, {Pattern: mustPattern(t, "P2")},
	}, Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if len(bres.Queries) != 3 {
		t.Fatalf("%d query results, want 3", len(bres.Queries))
	}
	for i, q := range bres.Queries {
		if !q.Stopped {
			t.Fatalf("query %d not flagged Stopped", i)
		}
	}
}

// TestBatchCompatKeyGroups: plans compiled from the same pattern under
// the same mode share a CompatKey; distinct patterns never do, and
// neither do two modes of one pattern. This is the grouping invariant
// the shared traversal's soundness rests on.
func TestBatchCompatKeyGroups(t *testing.T) {
	st := GenerateBarabasiAlbert(100, 3, 1).snap()
	seen := map[string]string{}
	for _, name := range CatalogNames() {
		p := mustPattern(t, name)
		pl1, err := preparePlan(context.Background(), st, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pl2, err := preparePlan(context.Background(), st, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pl1.CompatKey() != pl2.CompatKey() {
			t.Errorf("%s: recompile changed CompatKey", name)
		}
		if prev, dup := seen[pl1.CompatKey()]; dup {
			t.Errorf("%s and %s share a CompatKey", name, prev)
		}
		seen[pl1.CompatKey()] = name
	}
	// Different modes of the same pattern compile different σ/ops and
	// must not share a traversal.
	p4 := mustPattern(t, "P4")
	light, err := preparePlan(context.Background(), st, p4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := plan.Compile(p4.p, pattern.SymmetryBreaking(p4.p), light.Pi, plan.ModeSE)
	if err != nil {
		t.Fatal(err)
	}
	if light.CompatKey() == se.CompatKey() {
		t.Error("LIGHT and SE plans share a CompatKey")
	}
}

func TestGroupQueries(t *testing.T) {
	st := GenerateBarabasiAlbert(100, 3, 1).snap()
	tri, err := preparePlan(context.Background(), st, mustPattern(t, "triangle"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := preparePlan(context.Background(), st, mustPattern(t, "P4"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups := groupQueries([]*plan.Plan{tri, p4, tri, p4, tri})
	if len(groups) != 2 {
		t.Fatalf("got %d groups: %v", len(groups), groups)
	}
	if fmt.Sprint(groups[0]) != "[0 2 4]" || fmt.Sprint(groups[1]) != "[1 3]" {
		t.Fatalf("grouping: %v", groups)
	}

	// 65 compatible queries must split into word-sized chunks.
	big := make([]*plan.Plan, 65)
	for i := range big {
		big[i] = tri
	}
	groups = groupQueries(big)
	if len(groups) != 2 || len(groups[0]) != 64 || len(groups[1]) != 1 {
		t.Fatalf("65-way split: %d groups, sizes %d/%d", len(groups), len(groups[0]), len(groups[len(groups)-1]))
	}
}

func TestCountBatchValidation(t *testing.T) {
	g := completeGraph(8)
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

// TestBatchRunValidation: the batch path rejects a batch-wide filter
// and checkpointing as ErrUnsupportedOption, names the query that
// lacks a pattern, and refuses a snapshot of another graph beside the
// one it runs on; an empty batch runs nothing.
func TestBatchRunValidation(t *testing.T) {
	g := GenerateErdosRenyi(30, 60, 1)
	tri := mustPattern(t, "triangle")
	ctx := context.Background()

	if bres, err := CountBatchContext(ctx, g, []BatchQuery{}, Options{}); err != nil || len(bres.Queries) != 0 || bres.Groups != 0 {
		t.Errorf("empty batch: %+v, %v", bres, err)
	}
	if _, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: tri}, {}}, Options{}); err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Errorf("nil pattern at query 1: %v", err)
	}
	if _, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: tri}}, Options{
		Filter: func(u int, v VertexID) bool { return true },
	}); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("batch-wide Options.Filter: %v", err)
	}
	if _, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: tri}}, Options{ResumeFrom: "x"}); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("ResumeFrom: %v", err)
	}
	other := GenerateErdosRenyi(30, 60, 2)
	snap, err := other.ApplyEdges([][2]VertexID{{0, 29}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: tri}}, Options{Snapshot: snap}); err == nil {
		t.Error("snapshot of another graph accepted")
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

// TestCountBatchContextCancel: a context cancelled before the call
// surfaces unwrapped, and the batch stops in its plan search, before
// any query runs (TestBatchRunCancellation covers a stop mid-run).
func TestCountBatchContextCancel(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 5, 7)
	p, _ := PatternByName("P4")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bres, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: p}}, Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if len(bres.Queries) != 1 || !bres.Queries[0].Stopped || bres.Queries[0].Nodes != 0 {
		t.Fatalf("batch cancelled before it planned: %+v, want one stopped query that ran nothing", bres.Queries)
	}
}

// TestCountBatchErrorsReportEveryQuery: whichever way a batch fails
// before it runs — an option it rejects, a query without a pattern,
// plan search cancelled, admission refused — Queries still holds one
// stopped, zero Result per input query, so a caller may index it.
func TestCountBatchErrorsReportEveryQuery(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 5, 7)
	tri, p4 := mustPattern(t, "triangle"), mustPattern(t, "P4")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// A one-slot governor held by a run that waits in its visitor.
	gov := NewGovernor(GovernorConfig{Slots: 1})
	hold, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Enumerate(g, tri, Options{Governor: gov}, func([]VertexID) bool {
			once.Do(func() { close(started) })
			<-hold
			return true
		}); err != nil {
			t.Errorf("holder run failed: %v", err)
		}
	}()
	<-started
	defer wg.Wait()
	defer close(hold)

	for _, c := range []struct {
		name    string
		ctx     context.Context
		queries []BatchQuery
		opts    Options
		want    error
	}{
		{"rejected option", context.Background(), []BatchQuery{{Pattern: tri}, {Pattern: p4}}, Options{ResumeFrom: "x"}, ErrUnsupportedOption},
		{"no pattern", context.Background(), []BatchQuery{{Pattern: tri}, {}}, Options{}, nil},
		{"cancelled in plan search", cancelled, []BatchQuery{{Pattern: tri}, {Pattern: p4, MinDegree: 3}}, Options{Workers: 2}, context.Canceled},
		{"refused at admission", context.Background(), []BatchQuery{{Pattern: tri}, {Pattern: p4}, {Pattern: p4, MinDegree: 3}},
			Options{Governor: gov, AdmissionTimeout: 30 * time.Millisecond}, ErrOverloaded},
	} {
		bres, err := CountBatchContext(c.ctx, g, c.queries, c.opts)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if len(bres.Queries) != len(c.queries) {
			t.Errorf("%s: %d query results for %d queries", c.name, len(bres.Queries), len(c.queries))
		}
		for i, q := range bres.Queries {
			if !q.Stopped || q.Matches != 0 || q.Nodes != 0 || q.Report != nil {
				t.Errorf("%s: query %d = %+v, want a stopped zero Result", c.name, i, q)
			}
		}
	}
}
