package parallel

import (
	"testing"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestWorkStealingStressDeterministic hammers the cursor, the pool's
// park/wake path and the termination latch. Single-root chunks over a
// complete graph deal the heavy roots last (every degree is equal, so
// the pool's descending-id order puts the low ids, which symmetry
// breaking makes carry most of the subtree, at the end), so workers
// drain the cheap roots and park while the last roots are still running.
// Every iteration has to reproduce the sequential count exactly and deal
// every root in a chunk of its own exactly once (run this under -race:
// the claims, parks and the end of the run interleave differently each
// pass).
func TestWorkStealingStressDeterministic(t *testing.T) {
	iters, n := 25, 80
	if testing.Short() {
		iters, n = 5, 60
	}
	g := gen.Complete(n)
	pl := compile(t, pattern.Clique(4), plan.ModeLIGHT)
	want := sequentialCount(t, g, pl)
	rootsPerRun := uint64(g.NumVertices())

	var chunks uint64
	for i := 0; i < iters; i++ {
		res, err := Run(g, pl, Options{Workers: 8, ChunkSize: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("iter %d: matches = %d, want %d", i, res.Matches, want)
		}
		chunks += res.RootChunksDispensed
	}
	if chunks != uint64(iters)*rootsPerRun {
		t.Fatalf("chunks dispensed = %d, want %d: roots skipped or double-claimed", chunks, uint64(iters)*rootsPerRun)
	}
}

// TestWorkStealingStressVisitor repeats the stress shape in enumeration
// mode, where the serialized visitor adds another lock to the interleave
// and every match must be delivered exactly once across the workers.
func TestWorkStealingStressVisitor(t *testing.T) {
	iters, n := 10, 30
	if testing.Short() {
		iters, n = 3, 18
	}
	g := gen.Complete(n)
	pl := compile(t, pattern.Clique(4), plan.ModeLIGHT)
	want := sequentialCount(t, g, pl)
	for i := 0; i < iters; i++ {
		seen := map[[4]graph.VertexID]int{}
		res, err := Run(g, pl, Options{Workers: 8, ChunkSize: 1}, func(m []graph.VertexID) bool {
			seen[[4]graph.VertexID{m[0], m[1], m[2], m[3]}]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want || uint64(len(seen)) != want {
			t.Fatalf("iter %d: matches=%d distinct=%d, want %d", i, res.Matches, len(seen), want)
		}
		for key, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("iter %d: match %v delivered %d times", i, key, cnt)
			}
		}
	}
}
