//go:build faultinject

package light

import (
	"errors"
	"strings"
	"sync"
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

// TestOnePoolPerCall: a CountBatch and a CountDelta each start exactly
// one pool of W workers, however many groups or anchored plans and
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

// TestGovernedCallsShareOnePool: governed calls run on their Governor's
// one pool. While a one-worker Enumerate holds one of a 2-slot
// Governor's workers, five sequential 2-worker Counts start at most one
// worker between them, and each keeps its full cap: granted 2, with no
// reduced-admission event.
func TestGovernedCallsShareOnePool(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 1)
	p := mustPattern(t, "triangle")
	ref, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{Slots: 2, DisableWatchdog: true})

	hold, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Enumerate(g, p, Options{Workers: 1, Governor: gov}, func([]VertexID) bool {
			once.Do(func() { close(started) })
			<-hold
			return true
		}); err != nil {
			t.Errorf("holder run: %v", err)
		}
	}()
	defer wg.Wait()
	defer close(hold)
	<-started

	starts := countWorkerStarts(t, func() error {
		for i := 0; i < 5; i++ {
			res, err := Count(g, p, Options{Workers: 2, Governor: gov})
			if err != nil {
				return err
			}
			if res.Matches != ref.Matches {
				t.Errorf("count %d: %d matches, want %d", i, res.Matches, ref.Matches)
			}
			if res.Report.SlotsGranted != 2 {
				t.Errorf("count %d: SlotsGranted %d, want 2", i, res.Report.SlotsGranted)
			}
			for _, ev := range res.Report.DegradationEvents {
				if strings.HasPrefix(ev, "admission: granted") {
					t.Errorf("count %d: %q", i, ev)
				}
			}
		}
		return nil
	})
	if starts > 1 {
		t.Errorf("five governed Counts started %d workers, want at most 1: they must share the Governor's pool", starts)
	}
}

// TestChaosBatchAdmit: a fault at batch admission fails the batch
// before the pool runs, with no partial counts.
func TestChaosBatchAdmit(t *testing.T) {
	defer faultpoint.Reset()
	errInjected := errors.New("injected")
	g := GenerateErdosRenyi(50, 150, 1)
	tri := mustPattern(t, "triangle")
	faultpoint.Set(faultpoint.PointBatchAdmit, faultpoint.FailTimes(1, errInjected))
	bres, err := CountBatch(g, []BatchQuery{{Pattern: tri}, {Pattern: tri, MinDegree: 2}}, Options{})
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "batch admission") {
		t.Fatalf("err = %v", err)
	}
	for i, q := range bres.Queries {
		if q.Nodes != 0 || q.Matches != 0 {
			t.Fatalf("query %d: work ran past a failed admission: %+v", i, q)
		}
	}
}
