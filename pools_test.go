//go:build faultinject

package light

import (
	"sync/atomic"
	"testing"

	"light/internal/faultpoint"
)

// countWorkerStarts runs fn with a counting hook on the worker-start
// fault point and returns how many pool workers started meanwhile.
func countWorkerStarts(t *testing.T, fn func() error) int64 {
	t.Helper()
	defer faultpoint.Reset()
	var starts atomic.Int64
	faultpoint.Set(faultpoint.PointWorkerStart, func() error {
		starts.Add(1)
		return nil
	})
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return starts.Load()
}

// TestOnePoolPerCall: a lane batch and a CountDelta each start exactly
// one pool of W workers, however many lane groups or anchored plans and
// sides the call holds.
func TestOnePoolPerCall(t *testing.T) {
	const workers = 2
	g := GenerateBarabasiAlbert(300, 4, 1)

	var queries []BatchQuery
	for _, name := range CatalogNames() {
		for _, minDeg := range []int{0, 1, 2, 3, 4} {
			queries = append(queries, BatchQuery{Pattern: mustPattern(t, name), MinDegree: minDeg})
		}
	}
	var groups int
	starts := countWorkerStarts(t, func() error {
		bres, err := CountBatch(g, queries, Options{Workers: workers})
		groups = bres.Groups
		return err
	})
	if groups != len(CatalogNames()) || starts != workers {
		t.Errorf("catalog batch of %d groups started %d workers, want one pool of %d", groups, starts, workers)
	}

	from := g.Snapshot()
	to, err := g.ApplyEdges([][2]VertexID{{0, 1}, {2, 250}, {7, 9}}, [][2]VertexID{{0, g.Neighbors(0)[0]}, {5, g.Neighbors(5)[1]}})
	if err != nil {
		t.Fatal(err)
	}
	var dr DeltaResult
	starts = countWorkerStarts(t, func() error {
		dr, err = CountDelta(g, mustPattern(t, "P2"), from, to, Options{Workers: workers})
		return err
	})
	if dr.AddedEdges == 0 || dr.RemovedEdges == 0 || starts != workers {
		t.Errorf("CountDelta over %d added and %d removed edges started %d workers, want one pool of %d",
			dr.AddedEdges, dr.RemovedEdges, starts, workers)
	}
}
