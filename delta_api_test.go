package light

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// referenceTouching is the brute-force side of the CountDelta oracle: a
// full serial enumeration of the pinned snapshot (every symmetry-broken
// match of the view, reached from every vertex — nothing of the
// anchored search) counting the matches whose image uses one of edges.
func referenceTouching(t *testing.T, g *Graph, p *Pattern, snap *Snapshot, edges map[[2]VertexID]bool, filter func(int, VertexID) bool) uint64 {
	t.Helper()
	var n uint64
	_, err := Enumerate(g, p, Options{Snapshot: snap, Filter: filter}, func(m []VertexID) bool {
		for _, pe := range p.p.Edges() {
			a, b := m[pe[0]], m[pe[1]]
			if a > b {
				a, b = b, a
			}
			if edges[[2]VertexID{a, b}] {
				n++
				break
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// snapshotEdges lists the snapshot's edges, canonical (u < v).
func snapshotEdges(s *Snapshot) map[[2]VertexID]bool {
	out := map[[2]VertexID]bool{}
	for u := 0; u < s.NumVertices(); u++ {
		for _, v := range s.st.view.Neighbors(VertexID(u)) {
			if int(v) > u {
				out[[2]VertexID{VertexID(u), v}] = true
			}
		}
	}
	return out
}

// checkDeltaOracle demands that CountDelta(from, to) reports exactly the
// brute-force Gained and Lost — separately, so compensating errors
// cannot hide in Net — at 1, 2 and 4 workers with equal results, with
// and without a user filter, and that the reversed call mirrors it.
func checkDeltaOracle(t *testing.T, name string, g *Graph, p *Pattern, from, to *Snapshot) {
	t.Helper()
	fromE, toE := snapshotEdges(from), snapshotEdges(to)
	added, removed := map[[2]VertexID]bool{}, map[[2]VertexID]bool{}
	for e := range toE {
		if !fromE[e] {
			added[e] = true
		}
	}
	for e := range fromE {
		if !toE[e] {
			removed[e] = true
		}
	}
	filters := map[string]func(int, VertexID) bool{
		"nofilter": nil,
		// Sound by construction (it only narrows the match set), and it
		// depends on both arguments so the anchor and the partner
		// assignments each have to consult it.
		"filter": func(u int, v VertexID) bool { return (int(v)+u)%5 != 0 },
	}
	for fname, filter := range filters {
		wantGained := referenceTouching(t, g, p, to, added, filter)
		wantLost := referenceTouching(t, g, p, from, removed, filter)
		var first DeltaResult
		for _, workers := range []int{1, 2, 4} {
			opts := Options{Workers: workers, Filter: filter}
			dr, err := CountDelta(g, p, from, to, opts)
			if err != nil {
				t.Fatalf("%s/%s/%s workers %d: %v", name, p.Name(), fname, workers, err)
			}
			if dr.Gained != wantGained || dr.Lost != wantLost || dr.Net != int64(wantGained)-int64(wantLost) {
				t.Fatalf("%s/%s/%s workers %d: gained %d lost %d net %d, reference gained %d lost %d (+%d/-%d edges)",
					name, p.Name(), fname, workers, dr.Gained, dr.Lost, dr.Net, wantGained, wantLost, len(added), len(removed))
			}
			if dr.AddedEdges != len(added) || dr.RemovedEdges != len(removed) {
				t.Fatalf("%s: delta sizes +%d/-%d, want +%d/-%d", name, dr.AddedEdges, dr.RemovedEdges, len(added), len(removed))
			}
			if workers == 1 {
				first = dr
			} else if dr.Anchors != first.Anchors || dr.Nodes != first.Nodes {
				t.Fatalf("%s/%s/%s workers %d: work (anchors %d, nodes %d) differs from one worker's (%d, %d)",
					name, p.Name(), fname, workers, dr.Anchors, dr.Nodes, first.Anchors, first.Nodes)
			}
			rev, err := CountDelta(g, p, to, from, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rev.Net != -dr.Net || rev.Gained != dr.Lost || rev.Lost != dr.Gained {
				t.Fatalf("%s/%s/%s: reversed delta (net %d, gained %d, lost %d) does not mirror (net %d, gained %d, lost %d)",
					name, p.Name(), fname, rev.Net, rev.Gained, rev.Lost, dr.Net, dr.Gained, dr.Lost)
			}
		}
	}
}

func mustPattern(t *testing.T, name string) *Pattern {
	t.Helper()
	p, err := PatternByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCountDeltaGainedLostOracle runs the oracle over the shapes the
// exactly-once argument has to survive.
func TestCountDeltaGainedLostOracle(t *testing.T) {
	small := []*Pattern{mustPattern(t, "triangle"), mustPattern(t, "path3"), mustPattern(t, "square"), mustPattern(t, "clique4"), mustPattern(t, "P2")}

	t.Run("all-new", func(t *testing.T) {
		// Matches made entirely of new edges: a 4-clique (and its four
		// triangles) on pairwise non-adjacent grid vertices, plus one on
		// vertices that did not exist. Every edge of such an image is an
		// anchor, and only the smallest of them may count it.
		g := GenerateGrid(5, 5)
		var indep []VertexID
		for v := VertexID(0); len(indep) < 4; v++ {
			free := true
			for _, w := range indep {
				free = free && !g.HasEdge(v, w)
			}
			if free {
				indep = append(indep, v)
			}
		}
		n := VertexID(g.NumVertices())
		var add [][2]VertexID
		for _, q := range [][]VertexID{indep, {n, n + 1, n + 2, n + 3}} {
			for i := range q {
				for j := i + 1; j < len(q); j++ {
					add = append(add, [2]VertexID{q[i], q[j]})
				}
			}
		}
		add = append(add, [2]VertexID{indep[0], n})
		from := g.Snapshot()
		to, err := g.ApplyEdges(add, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range small {
			checkDeltaOracle(t, "all-new", g, p, from, to)
		}
	})

	t.Run("shared-hub", func(t *testing.T) {
		// Added and removed edges all meet one hub, so most changed
		// matches hold several changed edges that share an endpoint.
		g := GenerateBarabasiAlbert(60, 3, 5)
		hub := VertexID(g.NumVertices() - 1) // degree order: the last id is the biggest hub
		var add, rem [][2]VertexID
		for v := VertexID(0); len(add) < 6; v++ {
			if !g.HasEdge(hub, v) && v != hub {
				add = append(add, [2]VertexID{hub, v})
			}
		}
		for _, v := range g.Neighbors(hub)[:5] {
			rem = append(rem, [2]VertexID{hub, v})
		}
		from := g.Snapshot()
		to, err := g.ApplyEdges(add, rem)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range small {
			checkDeltaOracle(t, "shared-hub", g, p, from, to)
		}
	})

	t.Run("vertex-growth", func(t *testing.T) {
		// Endpoints beyond the old vertex count.
		g := GenerateBarabasiAlbert(40, 3, 9)
		n := VertexID(g.NumVertices())
		from := g.Snapshot()
		to, err := g.ApplyEdges([][2]VertexID{{n, 0}, {n, 1}, {n + 1, n}, {n + 1, 0}, {n + 2, 5}, {3, 4}}, [][2]VertexID{{0, g.Neighbors(0)[0]}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range small {
			checkDeltaOracle(t, "vertex-growth", g, p, from, to)
		}
	})

	t.Run("cross-compaction", func(t *testing.T) {
		// from and to sit on different base CSRs, so delta.Diff takes its
		// adjacency-merge path and the two sides enumerate different
		// bases, one clean and one dirty.
		g := GenerateBarabasiAlbert(50, 3, 21)
		rng := rand.New(rand.NewSource(4))
		mutate := func() {
			var add, rem [][2]VertexID
			for i := 0; i < 5; i++ {
				add = append(add, [2]VertexID{VertexID(rng.Intn(50)), VertexID(rng.Intn(52))})
				u := VertexID(rng.Intn(50))
				if nb := g.Neighbors(u); len(nb) > 0 {
					rem = append(rem, [2]VertexID{u, nb[rng.Intn(len(nb))]})
				}
			}
			if _, err := g.ApplyEdges(add, rem); err != nil {
				t.Fatal(err)
			}
		}
		mutate()
		from := g.Snapshot()
		mutate()
		if _, err := g.Compact(); err != nil {
			t.Fatal(err)
		}
		mutate()
		to := g.Snapshot()
		for _, p := range small {
			checkDeltaOracle(t, "cross-compaction", g, p, from, to)
		}
	})

	t.Run("catalog", func(t *testing.T) {
		// Every catalog pattern on a small BA graph under a mixed batch.
		g := GenerateBarabasiAlbert(36, 3, 2)
		rng := rand.New(rand.NewSource(8))
		var add, rem [][2]VertexID
		for i := 0; i < 8; i++ {
			add = append(add, [2]VertexID{VertexID(rng.Intn(36)), VertexID(rng.Intn(38))})
		}
		for i := 0; i < 4; i++ {
			u := VertexID(rng.Intn(36))
			rem = append(rem, [2]VertexID{u, g.Neighbors(u)[0]})
		}
		from := g.Snapshot()
		to, err := g.ApplyEdges(add, rem)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range CatalogNames() {
			checkDeltaOracle(t, "catalog", g, mustPattern(t, name), from, to)
		}
	})
}

// TestCountDeltaAlgorithms checks that the anchored plans are sound in
// every plan mode, not only under LIGHT's lazy σ.
func TestCountDeltaAlgorithms(t *testing.T) {
	g := GenerateBarabasiAlbert(80, 3, 6)
	from := g.Snapshot()
	to, err := g.ApplyEdges([][2]VertexID{{1, 70}, {2, 71}, {70, 71}, {5, 79}}, [][2]VertexID{{79, g.Neighbors(79)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"P2", "P4", "P6"} {
		p := mustPattern(t, name)
		want, err := CountDelta(g, p, from, to, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{SE, LM, MSC} {
			for _, kernel := range []Intersection{Merge, HybridBitmap} {
				dr, err := CountDelta(g, p, from, to, Options{Algorithm: alg, Intersection: kernel, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if dr.Gained != want.Gained || dr.Lost != want.Lost {
					t.Fatalf("%s %v/%v: gained %d lost %d, LIGHT reports gained %d lost %d",
						name, alg, kernel, dr.Gained, dr.Lost, want.Gained, want.Lost)
				}
			}
		}
	}
}

// TestCountDeltaIdentity checks the delta-counting identity
// count(to) == count(from) + Net over random mutation batches, in both
// snapshot orders, with one and several workers.
func TestCountDeltaIdentity(t *testing.T) {
	pats := []string{"triangle", "path3", "square"}
	g := GenerateBarabasiAlbert(100, 3, 13)
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 5; round++ {
		from := g.Snapshot()
		n := g.NumVertices()
		var add, rem [][2]VertexID
		for i := 0; i < 6; i++ {
			u, v := VertexID(rng.Intn(n+2)), VertexID(rng.Intn(n+2))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				rem = append(rem, [2]VertexID{u, v})
			} else {
				add = append(add, [2]VertexID{u, v})
			}
		}
		to, err := g.ApplyEdges(add, rem)
		if err != nil {
			t.Fatal(err)
		}
		if round == 2 {
			// Exercise the cross-compaction Diff path too.
			if to, err = g.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range pats {
			p := mustPattern(t, name)
			cFrom, err := Count(g, p, Options{Snapshot: from})
			if err != nil {
				t.Fatal(err)
			}
			cTo, err := Count(g, p, Options{Snapshot: to})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				dr, err := CountDelta(g, p, from, to, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if int64(cTo.Matches) != int64(cFrom.Matches)+dr.Net {
					t.Fatalf("round %d %s workers %d: count(to)=%d, count(from)=%d + net %d (gained %d, lost %d)",
						round, name, workers, cTo.Matches, cFrom.Matches, dr.Net, dr.Gained, dr.Lost)
				}
				// Reversed snapshots negate the delta.
				rev, err := CountDelta(g, p, to, from, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if rev.Net != -dr.Net || rev.Gained != dr.Lost || rev.Lost != dr.Gained {
					t.Fatalf("round %d %s: reversed delta (net %d, gained %d, lost %d) does not mirror (net %d, gained %d, lost %d)",
						round, name, rev.Net, rev.Gained, rev.Lost, dr.Net, dr.Gained, dr.Lost)
				}
			}
		}
	}
}

// TestCountDeltaIsLocal pins the cost model without a stopwatch: one new
// edge between two low-degree vertices of lj-s must expand under 1 % of
// the search-tree nodes a full Count expands. A regression back to
// whole-graph work (a filtered full enumeration, a ball that covers the
// graph) fails it on any machine.
func TestCountDeltaIsLocal(t *testing.T) {
	g := GenerateBarabasiAlbert(4800, 7, 103) // the lj-s stand-in (internal/gen suite)
	// Degree order: the smallest ids are the lowest-degree vertices.
	var u, v VertexID = 0, 1
	for g.HasEdge(u, v) {
		v++
	}
	from := g.Snapshot()
	to, err := g.ApplyEdges([][2]VertexID{{u, v}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"P2", "P6"} {
		p := mustPattern(t, name)
		full, err := Count(g, p, Options{Snapshot: to})
		if err != nil {
			t.Fatal(err)
		}
		dr, err := CountDelta(g, p, from, to, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dr.AddedEdges != 1 || dr.Anchors == 0 || dr.Anchors > 2*p.NumEdges() {
			t.Fatalf("%s: one added edge ran %d anchors (added %d), want 1..%d", name, dr.Anchors, dr.AddedEdges, 2*p.NumEdges())
		}
		if dr.Nodes*100 >= full.Nodes {
			t.Fatalf("%s: a 1-edge delta between degree-%d and degree-%d vertices expanded %d nodes, a full count %d — not local",
				name, g.Degree(u), g.Degree(v), dr.Nodes, full.Nodes)
		}
		before, err := Count(g, p, Options{Snapshot: from})
		if err != nil {
			t.Fatal(err)
		}
		if int64(full.Matches) != int64(before.Matches)+dr.Net {
			t.Fatalf("%s: count(to)=%d, count(from)=%d + net %d", name, full.Matches, before.Matches, dr.Net)
		}
	}
}

// TestCountDeltaCancellation checks that a large delta — every edge of
// the graph, so thousands of anchors per plan — returns promptly once
// its context is cancelled, and that TimeLimit covers the whole call.
func TestCountDeltaCancellation(t *testing.T) {
	g := GenerateBarabasiAlbert(3000, 12, 3)
	empty := NewGraph(g.NumVertices(), nil)
	from := empty.Snapshot()
	var all [][2]VertexID
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if int(v) > u {
				all = append(all, [2]VertexID{VertexID(u), v})
			}
		}
	}
	to, err := empty.ApplyEdges(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPattern(t, "P5")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, err := CountDeltaContext(ctx, empty, p, from, to, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: cancelled context returned %v", workers, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("workers %d: cancelled CountDelta took %v", workers, d)
		}

		ctx, cancel = context.WithCancel(context.Background())
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		start = time.Now()
		_, err = CountDeltaContext(ctx, empty, p, from, to, Options{Workers: workers})
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: mid-run cancel returned %v", workers, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("workers %d: CountDelta took %v to observe a cancel at 20ms", workers, d)
		}

		start = time.Now()
		_, err = CountDelta(empty, p, from, to, Options{Workers: workers, TimeLimit: 20 * time.Millisecond})
		if !errors.Is(err, ErrTimeLimit) {
			t.Fatalf("workers %d: TimeLimit returned %v", workers, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("workers %d: CountDelta took %v to observe a 20ms TimeLimit", workers, d)
		}
	}
}

func TestCountDeltaIdenticalSnapshotsIsZero(t *testing.T) {
	g := GenerateGrid(5, 5)
	p := mustPattern(t, "path3")
	s := g.Snapshot()
	dr, err := CountDelta(g, p, s, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Net != 0 || dr.Gained != 0 || dr.Lost != 0 || dr.AddedEdges != 0 || dr.RemovedEdges != 0 {
		t.Fatalf("identical snapshots produced nonzero delta: %+v", dr)
	}
}

func TestCountDeltaRejectsBadOptions(t *testing.T) {
	g := GenerateGrid(4, 4)
	p := mustPattern(t, "triangle")
	s := g.Snapshot()
	if _, err := CountDelta(g, p, nil, s, Options{}); err == nil {
		t.Fatal("accepted nil from-snapshot")
	}
	other := GenerateGrid(4, 4)
	if _, err := CountDelta(g, p, other.Snapshot(), s, Options{}); err == nil {
		t.Fatal("accepted a snapshot from a different Graph")
	}
	for name, opts := range map[string]Options{
		"Snapshot":       {Snapshot: s},
		"CheckpointPath": {CheckpointPath: "x"},
		"ResumeFrom":     {ResumeFrom: "x"},
	} {
		if _, err := CountDelta(g, p, s, s, opts); !errors.Is(err, ErrUnsupportedOption) {
			t.Fatalf("Options.%s: got %v, want an ErrUnsupportedOption", name, err)
		}
	}
	if _, err := CountDelta(g, p, s, s, Options{Workers: -1}); err == nil || errors.Is(err, ErrUnsupportedOption) {
		t.Fatalf("invalid Workers: got %v, want a validation error", err)
	}
}

// TestCountDeltaGoverned runs CountDelta through a shared Governor and a
// memory budget: one admission covers both sides, the result is the
// ungoverned one, and the slots and reservations are all returned.
func TestCountDeltaGoverned(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 11)
	from := g.Snapshot()
	to, err := g.ApplyEdges([][2]VertexID{{3, 290}, {7, 299}, {290, 299}}, [][2]VertexID{{299, g.Neighbors(299)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPattern(t, "P2")
	want, err := CountDelta(g, p, from, to, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{Slots: 2, MemoryBudget: 64 << 20})
	dr, err := CountDelta(g, p, from, to, Options{Workers: 4, Governor: gov, MemoryBudget: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Gained != want.Gained || dr.Lost != want.Lost || dr.Nodes != want.Nodes {
		t.Fatalf("governed: gained %d lost %d nodes %d, ungoverned gained %d lost %d nodes %d",
			dr.Gained, dr.Lost, dr.Nodes, want.Gained, want.Lost, want.Nodes)
	}
	if gov.ActiveQueries() != 0 || gov.MemoryInUse() != 0 {
		t.Fatalf("after the call the governor still holds %d queries, %d bytes", gov.ActiveQueries(), gov.MemoryInUse())
	}
}

// TestCountDeltaLeavesNothingRunning checks that a call is over when it
// returns: the anchored pools' workers and the context watcher are all
// joined, with and without a cancellable context, so a stream of calls
// leaves no goroutine behind to compete with what the caller runs next.
func TestCountDeltaLeavesNothingRunning(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 11)
	from := g.Snapshot()
	to, err := g.ApplyEdges([][2]VertexID{{3, 290}, {7, 299}, {290, 299}}, [][2]VertexID{{299, g.Neighbors(299)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPattern(t, "P2")
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := CountDeltaContext(ctx, g, p, from, to, Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := CountDelta(g, p, from, to, Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 100 CountDelta calls, %d after", before, after)
	}
}
