package light

import (
	"sync"
	"testing"
)

// These are the regression tests for the shared-Graph hub-index data
// race: the index used to be rebuilt nil-then-swap under the hot-path
// HubBitmap reader, so a rebuild concurrent with a query could crash
// it or silently drop bitmap probes mid-run. No query rebuilds the
// index any more; what can still happen is an explicit BuildHubIndex
// on a base CSR that queries are enumerating.

// TestConcurrentQueriesHubThreshold runs Count, CountBatch and
// CountDelta concurrently on one shared *Graph — clean and dirty
// snapshots over one base — while BuildHubIndex keeps republishing the
// base's index with alternating τ. Every query must return the exact
// reference count (τ shifts kernel strategy only, never the match set),
// with no data race.
func TestConcurrentQueriesHubThreshold(t *testing.T) {
	g := GenerateBarabasiAlbert(600, 6, 17)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	hub := VertexID(g.NumVertices() - 1) // degree order: the last id is the biggest hub
	clean := g.Snapshot()
	dirty, err := g.ApplyEdges(
		[][2]VertexID{{0, 1}, {0, 2}, {1, 2}, {3, 5}},
		[][2]VertexID{{hub, g.Neighbors(hub)[0]}, {hub, g.Neighbors(hub)[1]}})
	if err != nil {
		t.Fatal(err)
	}
	snaps := [2]*Snapshot{clean, dirty}
	var refs [2]uint64
	for i, s := range snaps {
		res, err := Count(g, p, Options{Intersection: HybridBlock, Snapshot: s})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.Matches
	}
	refDelta, err := CountDelta(g, p, clean, dirty, Options{Intersection: HybridBlock})
	if err != nil {
		t.Fatal(err)
	}

	base := g.snap().view.Base()
	base.BuildHubIndex(4) // every query below finds indexed hubs
	stop := make(chan struct{})
	var builder sync.WaitGroup
	builder.Add(1)
	go func() {
		defer builder.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			base.BuildHubIndex(9 - 5*(i%2)) // alternating τ defeats the same-τ fast path
		}
	}()

	const queries = 12
	var wg sync.WaitGroup
	var probes [queries]uint64
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			side := q % 2
			opts := Options{Workers: 1 + q%3}
			switch q % 3 {
			case 0:
				opts.Snapshot = snaps[side]
				res, err := Count(g, p, opts)
				if err != nil || res.Matches != refs[side] {
					t.Errorf("query %d: Count = %d, %v; want %d", q, res.Matches, err, refs[side])
					return
				}
				probes[q] = res.Report.BitmapProbes
			case 1:
				opts.Snapshot = snaps[side]
				bres, err := CountBatch(g, []BatchQuery{{Pattern: p}}, opts)
				if err != nil || bres.Queries[0].Matches != refs[side] {
					t.Errorf("query %d: CountBatch = %+v, %v; want %d", q, bres.Queries, err, refs[side])
					return
				}
				probes[q] = bres.Queries[0].Report.BitmapProbes
			case 2:
				dr, err := CountDelta(g, p, clean, dirty, opts)
				if err != nil || dr.Gained != refDelta.Gained || dr.Lost != refDelta.Lost {
					t.Errorf("query %d: CountDelta = +%d -%d, %v; want +%d -%d",
						q, dr.Gained, dr.Lost, err, refDelta.Gained, refDelta.Lost)
				}
			}
		}(q)
	}
	wg.Wait()
	close(stop)
	builder.Wait()
	var probed uint64
	for _, n := range probes {
		probed += n
	}
	if probed == 0 {
		t.Error("no query probed a hub bitmap: the race never touched the probing path")
	}
}

// TestHubIndexOneBuildAcrossQueries pins that the hub index is
// immutable per base CSR as far as any query can tell: whatever runs —
// every kernel, single, batch and delta, concurrently — the only build
// a base ever sees is its construction's, and a compaction's new CSR
// gets its own.
func TestHubIndexOneBuildAcrossQueries(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 5, 23)
	tri, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	clean := g.Snapshot()
	dirty, err := g.ApplyEdges([][2]VertexID{{0, 1}, {0, 2}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := g.snap().view.Base()
	tau := base.HubThreshold()

	var wg sync.WaitGroup
	errCh := make(chan error, int(Hybrid)+1)
	for k := Intersection(0); k <= Hybrid; k++ {
		wg.Add(1)
		go func(k Intersection) {
			defer wg.Done()
			opts := Options{Intersection: k, Workers: 1 + int(k)%2}
			var err error
			switch k % 3 {
			case 0:
				_, err = Count(g, tri, opts)
			case 1:
				_, err = CountBatch(g, []BatchQuery{{Pattern: tri}}, opts)
			case 2:
				_, err = CountDelta(g, tri, clean, dirty, opts)
			}
			errCh <- err
		}(k)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := base.HubBuilds(); got != 1 {
		t.Errorf("HubBuilds = %d after queries, want 1 (construction's)", got)
	}
	if got := base.HubThreshold(); got != tau {
		t.Errorf("HubThreshold = %d after queries, want %d", got, tau)
	}
	if _, err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if nb := g.snap().view.Base(); nb == base || nb.HubBuilds() != 1 {
		t.Errorf("compacted base: same CSR %v, HubBuilds = %d; want a new CSR with its own single build", nb == base, nb.HubBuilds())
	}
}
