package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestVisitorNeverCalledAfterStop pins the stop latch: a visitor that
// returns false on its N-th call must see exactly N calls, however many
// workers were already queued on the serializing mutex with a match of
// their own. Without the latch this fails on any host with GOMAXPROCS
// >= 2 (the queued workers each deliver one more match).
func TestVisitorNeverCalledAfterStop(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2: the race is between workers queued on the visitor mutex")
	}
	g := gen.Complete(40)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	const limit = 5
	for round := 0; round < 50; round++ {
		var calls atomic.Int64
		res, err := Run(g, pl, Options{Workers: 4, ChunkSize: 1}, func(m []graph.VertexID) bool {
			n := calls.Add(1)
			if n == limit {
				// Hold the mutex long enough for the other workers to
				// reach it with their next match.
				for i := 0; i < 100; i++ {
					runtime.Gosched()
				}
			}
			return n < limit
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatal("expected Stopped")
		}
		if n := calls.Load(); n != limit {
			t.Fatalf("round %d: visitor called %d times after returning false on call %d", round, n-limit, limit)
		}
	}
}

// TestRunAnchoredReachesEveryEmbeddingOncePerEdge checks anchored jobs
// against the rooted path: with every data edge as an anchor, each
// symmetry-broken embedding is reached exactly once per pattern edge —
// from the one ordered pattern edge that lies on that data edge with its
// smaller endpoint first — so a graph's anchored jobs together report
// |E(P)| times the match count, at any worker count. One run holds the
// anchored jobs and a rooted job for each of two different base CSRs, so
// it also checks that every job keeps to its own view and units.
func TestRunAnchoredReachesEveryEmbeddingOncePerEdge(t *testing.T) {
	graphs := []*graph.Graph{gen.BarabasiAlbert(300, 4, 3), gen.RMAT(8, 5, 2)}
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.P2(), pattern.P4(), pattern.P6()} {
		for _, mode := range []plan.Mode{plan.ModeSE, plan.ModeLIGHT} {
			rooted := compile(t, p, mode)
			po := pattern.SymmetryBreaking(p)
			var jobs []Job
			var of []int // the graph each job reads
			counts := make([]uint64, len(graphs))
			for gi, g := range graphs {
				counts[gi] = sequentialCount(t, g, rooted)
				jobs, of = append(jobs, Job{Graph: g, Plan: rooted}), append(of, gi)
				anchors := edgeAnchors(g)
				stats := estimate.Collect(g)
				for _, e := range p.Edges() {
					for _, ab := range [][2]pattern.Vertex{{e[0], e[1]}, {e[1], e[0]}} {
						pl, err := plan.ChooseAnchored(p, po, stats, mode, ab[0], ab[1])
						if err != nil {
							t.Fatal(err)
						}
						jobs, of = append(jobs, Job{Graph: g, Plan: pl, Anchors: anchors}), append(of, gi)
					}
				}
			}
			for _, workers := range []int{1, 2, 4} {
				res, err := RunJobs(context.Background(), Options{Workers: workers}, jobs)
				if err != nil {
					t.Fatal(err)
				}
				reached := make([]uint64, len(graphs))
				var total uint64
				for j, jb := range jobs {
					got := res.Jobs[j].Matches
					total += got
					if jb.Anchors != nil {
						reached[of[j]] += got
					} else if got != counts[of[j]] {
						t.Fatalf("%s %s workers=%d graph %d: rooted job counted %d, want %d",
							p.Name(), mode.Name(), workers, of[j], got, counts[of[j]])
					}
				}
				for gi, n := range reached {
					if want := uint64(p.NumEdges()) * counts[gi]; n != want {
						t.Fatalf("%s %s workers=%d graph %d: anchored jobs reached %d embeddings, want |E(P)|·count = %d",
							p.Name(), mode.Name(), workers, gi, n, want)
					}
				}
				if res.Matches != total {
					t.Fatalf("%s %s workers=%d: Result.Matches %d is not the jobs' sum %d", p.Name(), mode.Name(), workers, res.Matches, total)
				}
			}
		}
	}
}

// edgeAnchors makes every edge of g an anchor, grouped by its smaller
// endpoint.
func edgeAnchors(g *graph.Graph) []engine.Anchor {
	var anchors []engine.Anchor
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(graph.VertexID(v))
		i := 0
		for i < len(nb) && nb[i] <= graph.VertexID(v) {
			i++
		}
		if i < len(nb) {
			anchors = append(anchors, engine.Anchor{Root: graph.VertexID(v), Partners: nb[i:]})
		}
	}
	return anchors
}
