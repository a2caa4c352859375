package light

import (
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func triangles(t *testing.T) *Pattern {
	t.Helper()
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rebuild reconstructs the graph's current view from scratch through the
// public accessors — the independent reference a mutated graph must match.
func rebuild(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var edges [][2]VertexID
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < u {
				edges = append(edges, [2]VertexID{VertexID(v), u})
			}
		}
	}
	return NewGraph(g.NumVertices(), edges)
}

func TestApplyEdgesCountsMatchRebuild(t *testing.T) {
	g := GenerateBarabasiAlbert(120, 3, 7)
	p := triangles(t)
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 4; round++ {
		n := g.NumVertices()
		var add, rem [][2]VertexID
		for i := 0; i < 8; i++ {
			u, v := VertexID(rng.Intn(n+3)), VertexID(rng.Intn(n+3))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				rem = append(rem, [2]VertexID{u, v})
			} else {
				add = append(add, [2]VertexID{u, v})
			}
		}
		snap, err := g.ApplyEdges(add, rem)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Count(rebuild(t, g), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := Count(g, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.Matches != want.Matches {
				t.Fatalf("round %d workers %d: overlay count %d, rebuild %d",
					round, workers, got.Matches, want.Matches)
			}
			if got.Report.SnapshotGen != snap.Generation() {
				t.Errorf("round %d: report gen %d, snapshot gen %d",
					round, got.Report.SnapshotGen, snap.Generation())
			}
			if got.Report.DeltaEdges != snap.DeltaEdges() {
				t.Errorf("round %d: report delta edges %d, snapshot %d",
					round, got.Report.DeltaEdges, snap.DeltaEdges())
			}
		}
	}
	// Compaction preserves the count and clears the delta accounting.
	want, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := g.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if snap.DeltaEdges() != 0 {
		t.Fatalf("compacted snapshot carries %d delta edges", snap.DeltaEdges())
	}
	got, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches {
		t.Fatalf("compaction changed count: %d -> %d", want.Matches, got.Matches)
	}
	if got.Report.DeltaEdges != 0 {
		t.Fatalf("compacted run reports %d delta edges", got.Report.DeltaEdges)
	}
}

// TestSnapshotIsolation is the snapshot-isolation proof: queries pinned
// to generation N keep returning N's exact count while ApplyEdges
// publishes N+1, N+2, ... concurrently. Run under -race this also
// checks the publication discipline (no locks on the read side).
func TestSnapshotIsolation(t *testing.T) {
	g := GenerateBarabasiAlbert(150, 3, 9)
	p := triangles(t)
	pinned := g.Snapshot()
	want, err := Count(g, p, Options{Snapshot: pinned})
	if err != nil {
		t.Fatal(err)
	}

	const readers, rounds = 4, 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				res, err := Count(g, p, Options{Snapshot: pinned, Workers: workers})
				if err != nil {
					errs <- err
					return
				}
				if res.Matches != want.Matches {
					t.Errorf("pinned reader saw %d matches, want %d", res.Matches, want.Matches)
					return
				}
			}
		}(1 + r%3)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		rng := rand.New(rand.NewSource(33))
		for i := 0; i < rounds; i++ {
			n := g.NumVertices()
			add := [][2]VertexID{{VertexID(rng.Intn(n)), VertexID(rng.Intn(n + 2))}}
			rem := [][2]VertexID{{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}}
			if _, err := g.ApplyEdges(add, rem); err != nil {
				errs <- err
				return
			}
			if i == rounds/2 {
				if _, err := g.Compact(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The pinned snapshot still answers exactly even though the graph
	// head moved on (and was compacted under it).
	res, err := Count(g, p, Options{Snapshot: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want.Matches {
		t.Fatalf("pinned count drifted after mutations: %d -> %d", want.Matches, res.Matches)
	}
	if g.Snapshot().Generation() == pinned.Generation() {
		t.Fatal("head generation did not advance")
	}
}

// TestSnapshotIsolationDirtyHubs pins dirty generations whose batches
// touch indexed hubs — so their overlays carry rebuilt hub bitmaps
// shared with every later overlay of the same base — and counts each
// with 1, 2 and 3 workers while the mutator keeps applying and
// compacting. Every count must equal a fresh CSR's count of the
// snapshot it pinned, and the default kernel must probe bitmaps.
func TestSnapshotIsolationDirtyHubs(t *testing.T) {
	g := GenerateBarabasiAlbert(900, 2, 7)
	if g.NumHubs() == 0 {
		t.Fatal("fixture graph indexes no hub under the auto τ")
	}
	p := mustPattern(t, "P2")
	type pinned struct {
		snap *Snapshot
		want uint64
	}
	const readers, rounds = 3, 8
	feeds := make([]chan pinned, readers)
	for r := range feeds {
		feeds[r] = make(chan pinned, rounds)
	}
	var probes atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(workers int, feed <-chan pinned) {
			defer wg.Done()
			for pin := range feed {
				res, err := Count(g, p, Options{Snapshot: pin.snap, Workers: workers})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Matches != pin.want {
					t.Errorf("workers %d, generation %d: pinned count %d, fresh CSR %d",
						workers, pin.snap.Generation(), res.Matches, pin.want)
				}
				probes.Add(res.Report.BitmapProbes)
			}
		}(1+r, feeds[r])
	}

	rng := rand.New(rand.NewSource(35))
	for i := 0; i < rounds; i++ {
		// Two indexed hubs of the current base each gain an edge to a
		// random vertex and lose one of their own.
		st := g.snap()
		var hubs []VertexID
		for v := 0; v < st.view.Base().NumVertices(); v++ {
			if st.view.Base().HubBitmap(VertexID(v)) != nil {
				hubs = append(hubs, VertexID(v))
			}
		}
		var add, rem [][2]VertexID
		for k := 0; k < 2; k++ {
			h := hubs[rng.Intn(len(hubs))]
			ns := g.Neighbors(h)
			add = append(add, [2]VertexID{h, VertexID(rng.Intn(g.NumVertices()))})
			rem = append(rem, [2]VertexID{h, ns[rng.Intn(len(ns))]})
		}
		snap, err := g.ApplyEdges(add, rem)
		if err != nil {
			t.Fatal(err)
		}
		if snap.DeltaEdges() == 0 {
			t.Fatalf("round %d: batch left a clean snapshot", i)
		}
		ov := snap.st.view.Overlay()
		for _, e := range rem {
			if bm := ov.HubBitmap(e[0]); bm == nil || bm == st.view.Base().HubBitmap(e[0]) {
				t.Fatalf("round %d: touched hub %d kept no rebuilt bitmap", i, e[0])
			}
		}
		ref, err := Count(rebuild(t, g), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, feed := range feeds {
			feed <- pinned{snap, ref.Matches}
		}
		if i == rounds/2 {
			if _, err := g.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
	if probes.Load() == 0 {
		t.Error("no pinned count probed a hub bitmap")
	}
}

// edgeAndNonEdge finds one present and one absent pair at vertex 0.
func edgeAndNonEdge(t *testing.T, g *Graph) (present, absent [2]VertexID) {
	t.Helper()
	havePresent, haveAbsent := false, false
	for v := 1; v < g.NumVertices(); v++ {
		if g.HasEdge(0, VertexID(v)) {
			if !havePresent {
				present, havePresent = [2]VertexID{0, VertexID(v)}, true
			}
		} else if !haveAbsent {
			absent, haveAbsent = [2]VertexID{0, VertexID(v)}, true
		}
	}
	if !havePresent || !haveAbsent {
		t.Fatal("fixture graph lacks a present/absent pair at vertex 0")
	}
	return present, absent
}

func TestApplyEdgesNoOpKeepsSnapshot(t *testing.T) {
	g := GenerateGrid(4, 4)
	present, absent := edgeAndNonEdge(t, g)
	before := g.Snapshot()
	// Self-loops, already-present insertions, and already-absent
	// deletions change nothing.
	snap, err := g.ApplyEdges([][2]VertexID{{0, 0}, present}, [][2]VertexID{absent})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation() != before.Generation() || snap.Fingerprint() != before.Fingerprint() {
		t.Fatalf("no-op batch advanced the snapshot: gen %d -> %d", before.Generation(), snap.Generation())
	}
}

func TestApplyEdgesChangesFingerprint(t *testing.T) {
	g := GenerateGrid(4, 4)
	_, absent := edgeAndNonEdge(t, g)
	before := g.Fingerprint()
	if _, err := g.ApplyEdges([][2]VertexID{absent}, nil); err != nil {
		t.Fatal(err)
	}
	after := g.Fingerprint()
	if after == before {
		t.Fatal("fingerprint unchanged after effective edge batch")
	}
	snap, err := g.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint() == before {
		t.Fatal("compacted fingerprint equals pre-mutation fingerprint")
	}
}

func TestPendingDeltasRejectCheckpointAndSave(t *testing.T) {
	g := GenerateBarabasiAlbert(60, 3, 4)
	if _, err := g.ApplyEdges([][2]VertexID{{0, 59}}, nil); err != nil {
		t.Fatal(err)
	}
	p := triangles(t)
	dir := t.TempDir()
	_, err := Count(g, p, Options{CheckpointPath: filepath.Join(dir, "ck")})
	if !errors.Is(err, ErrUnsupportedOption) || !strings.Contains(err.Error(), "Compact") {
		t.Fatalf("checkpoint with pending deltas: err = %v, want a compact-first ErrUnsupportedOption", err)
	}
	_, err = Count(g, p, Options{ResumeFrom: filepath.Join(dir, "ck")})
	if !errors.Is(err, ErrUnsupportedOption) || !strings.Contains(err.Error(), "Compact") {
		t.Fatalf("resume with pending deltas: err = %v, want a compact-first ErrUnsupportedOption", err)
	}
	if err := g.SaveCSR(filepath.Join(dir, "g.csr")); err == nil || !strings.Contains(err.Error(), "Compact") {
		t.Fatalf("SaveCSR with pending deltas: err = %v, want compact-first rejection", err)
	}
	// After compaction they all work again.
	if _, err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveCSR(filepath.Join(dir, "g.csr")); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(g, p, Options{CheckpointPath: filepath.Join(dir, "ck")}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotForeignGraphRejected(t *testing.T) {
	g1 := GenerateGrid(3, 3)
	g2 := GenerateGrid(3, 3)
	p := triangles(t)
	if _, err := Count(g1, p, Options{Snapshot: g2.Snapshot()}); err == nil {
		t.Fatal("Count accepted a snapshot from a different Graph")
	}
}

func TestCountBatchOnOverlay(t *testing.T) {
	g := GenerateBarabasiAlbert(90, 3, 6)
	if _, err := g.ApplyEdges([][2]VertexID{{0, 89}, {1, 95}}, [][2]VertexID{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	p := triangles(t)
	want, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := CountBatch(g, []BatchQuery{{Pattern: p}, {Pattern: p}}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range bres.Queries {
		if q.Matches != want.Matches {
			t.Errorf("batch query %d on overlay: %d matches, want %d", i, q.Matches, want.Matches)
		}
	}
}
