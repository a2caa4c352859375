package parallel

import (
	"testing"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestWorkStealingStressDeterministic hammers the donate/steal path.
// Single-root chunks over a complete graph deal the heavy roots last
// (every degree is equal, so the pool's descending-id order puts the low
// ids, which symmetry breaking makes carry most of the subtree, at the
// end), so workers drain the cheap roots and go hungry while the last
// roots are still running — forcing the donation hook. Every iteration
// has to reproduce the sequential count exactly (run this under -race: the
// donation hook, the frame queue and the termination latch all
// interleave differently each pass), and the aggregate run must show
// real donations and steals — if the hook never fires, the pool
// silently degrades to plain root chunking and this test is the
// tripwire.
func TestWorkStealingStressDeterministic(t *testing.T) {
	iters, n := 25, 80
	if testing.Short() {
		iters, n = 5, 60
	}
	g := gen.Complete(n)
	pl := compile(t, pattern.Clique(4), plan.ModeLIGHT)
	want := sequentialCount(t, g, pl)
	rootsPerRun := uint64(g.NumVertices())

	var donations, steals, chunks uint64
	for i := 0; i < iters; i++ {
		res, err := Run(g, pl, Options{Workers: 8, ChunkSize: 1, MinSplit: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("iter %d: matches = %d, want %d (donations=%d steals=%d)",
				i, res.Matches, want, res.Donations, res.Steals)
		}
		if res.Steals > res.Donations {
			t.Fatalf("iter %d: steals %d exceed donations %d", i, res.Steals, res.Donations)
		}
		donations += res.Donations
		steals += res.Steals
		chunks += res.RootChunksDispensed
	}
	if chunks != uint64(iters)*rootsPerRun {
		t.Fatalf("chunks dispensed = %d, want %d: roots skipped or double-claimed", chunks, uint64(iters)*rootsPerRun)
	}
	if donations == 0 || steals == 0 {
		t.Fatalf("stress never exercised the donation path: donations=%d steals=%d", donations, steals)
	}
	t.Logf("stress: %d iterations, %d donations, %d steals", iters, donations, steals)
}

// TestWorkStealingStressVisitor repeats the stress shape in enumeration
// mode, where the serialized visitor adds another lock to the interleave
// and every match must be delivered exactly once across donated frames.
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
		res, err := Run(g, pl, Options{Workers: 8, ChunkSize: 1, MinSplit: 2}, func(m []graph.VertexID) bool {
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
