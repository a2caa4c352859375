package server

import (
	"compress/gzip"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"light"
)

// TestUnloadSharedSnapshotKeepsCache is the regression test for the
// over-invalidation bug: two names sharing one load-once snapshot must
// keep their cached results when only one of the names is unloaded.
// Before the fix, DELETE /graphs/b invalidated every cache entry keyed
// by the shared fingerprint, evicting results the surviving name "a"
// was still serving.
func TestUnloadSharedSnapshotKeepsCache(t *testing.T) {
	s := New(Config{})
	g := light.GenerateBarabasiAlbert(200, 4, 5)
	if _, err := s.Registry().Add("a", g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("b", g); err != nil {
		t.Fatal(err)
	}

	// Warm the cache through name "a".
	body := queryRequest{Graph: "a", Pattern: "triangle"}
	w := do(t, s, "POST", "/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("warming query status = %d: %s", w.Code, w.Body.String())
	}
	var warm QueryResponse
	decode(t, w, &warm)
	if warm.Cached {
		t.Fatal("warming query reported cached")
	}

	// Unload the alias: the snapshot is still referenced by "a".
	w = do(t, s, "DELETE", "/graphs/b", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("unload b status = %d: %s", w.Code, w.Body.String())
	}
	var unload struct {
		Invalidated int  `json:"invalidated"`
		Shared      bool `json:"shared"`
	}
	decode(t, w, &unload)
	if !unload.Shared {
		t.Fatal("unloading alias b did not report the snapshot as shared")
	}
	if unload.Invalidated != 0 {
		t.Fatalf("unloading alias b invalidated %d cache entries; want 0", unload.Invalidated)
	}

	// "a" must still be served from cache.
	w = do(t, s, "POST", "/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("post-unload query status = %d: %s", w.Code, w.Body.String())
	}
	var hit QueryResponse
	decode(t, w, &hit)
	if !hit.Cached {
		t.Fatal("query via surviving name missed the cache after alias unload")
	}
	if hit.Matches != warm.Matches {
		t.Fatalf("cached matches %d, want %d", hit.Matches, warm.Matches)
	}

	// Unloading the last reference does invalidate.
	w = do(t, s, "DELETE", "/graphs/a", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("unload a status = %d: %s", w.Code, w.Body.String())
	}
	decode(t, w, &unload)
	if unload.Shared {
		t.Fatal("last unload still reported shared")
	}
	if unload.Invalidated == 0 {
		t.Fatal("last unload invalidated no cache entries")
	}
}

// TestValidNameCharset pins the documented safe charset. The rejected
// rows include names the old everything-but-slashes-and-spaces rule
// accepted: URL metacharacters that corrupt DELETE /graphs/{name} and
// cache keys.
func TestValidNameCharset(t *testing.T) {
	accepted := []string{"g", "G1", "my-graph.v2_final", "0", "a.b-c_d"}
	rejected := []string{
		"", "a/b", "a b", "a\tb", "a\nb", // rejected before and after
		"a?b", "a#b", "a%b", "a&b", "a=b", "g(1)", "café", // previously accepted
	}
	for _, name := range accepted {
		if err := validName(name); err != nil {
			t.Errorf("validName(%q) = %v, want accepted", name, err)
		}
	}
	for _, name := range rejected {
		if err := validName(name); err == nil {
			t.Errorf("validName(%q) accepted, want rejected", name)
		}
	}
}

// TestLoadRoutesCSRAndGzip checks the loader routing: both g.csr and
// g.csr.gz must parse as binary CSR snapshots (the old suffix test sent
// .csr.gz through the edge-list parser).
func TestLoadRoutesCSRAndGzip(t *testing.T) {
	dir := t.TempDir()
	g := light.GenerateGrid(6, 6)
	plain := filepath.Join(dir, "g.csr")
	if err := g.SaveCSR(plain); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "g.csr.gz")
	zf, err := os.Create(zipped)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(zf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zf.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	plainInfo, err := r.Load("plain", plain)
	if err != nil {
		t.Fatalf("loading %s: %v", plain, err)
	}
	zipInfo, err := r.Load("zipped", zipped)
	if err != nil {
		t.Fatalf("loading %s: %v", zipped, err)
	}
	if plainInfo.Fingerprint != zipInfo.Fingerprint {
		t.Fatalf("fingerprint mismatch: %s (plain) vs %s (gzip)", plainInfo.Fingerprint, zipInfo.Fingerprint)
	}
	if zipInfo.Vertices != g.NumVertices() || zipInfo.Edges != g.NumEdges() {
		t.Fatalf("gzip load got %d vertices / %d edges, want %d / %d",
			zipInfo.Vertices, zipInfo.Edges, g.NumVertices(), g.NumEdges())
	}
}

// TestIdempotentReloadRefreshesPath pins the re-register contract:
// loading the same content under the same name keeps the original
// snapshot and LoadedAt but tracks the file's new location.
func TestIdempotentReloadRefreshesPath(t *testing.T) {
	dir := t.TempDir()
	g := light.GenerateGrid(5, 5)
	p1 := filepath.Join(dir, "first.csr")
	if err := g.SaveCSR(p1); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	info1, err := r.Load("g", p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "moved.csr")
	if err := os.Rename(p1, p2); err != nil {
		t.Fatal(err)
	}
	info2, err := r.Load("g", p2)
	if err != nil {
		t.Fatalf("idempotent re-load: %v", err)
	}
	if info2.Fingerprint != info1.Fingerprint {
		t.Fatalf("re-load changed fingerprint: %s -> %s", info1.Fingerprint, info2.Fingerprint)
	}
	if info2.Path != p2 {
		t.Fatalf("re-load kept stale path %q, want %q", info2.Path, p2)
	}
	if !info2.LoadedAt.Equal(info1.LoadedAt) {
		t.Fatalf("re-load changed LoadedAt: %v -> %v", info1.LoadedAt, info2.LoadedAt)
	}
	// The refreshed path must be visible through Get and List too.
	if _, info, ok := r.Get("g"); !ok || info.Path != p2 {
		t.Fatalf("Get after re-load: path %q, want %q", info.Path, p2)
	}
}

// TestApplyEdgesEndpoint drives POST /graphs/{name}/edges: the count
// changes, the registry metadata (all aliases) moves to the new
// fingerprint, stale cache entries go away, and compaction clears the
// delta accounting without changing the view.
func TestApplyEdgesEndpoint(t *testing.T) {
	s, g, ref := testServer(t, Config{})
	if _, err := s.Registry().Add("alias", g); err != nil {
		t.Fatal(err)
	}
	body := queryRequest{Graph: "g", Pattern: "triangle"}
	w := do(t, s, "POST", "/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("warm query status = %d: %s", w.Code, w.Body.String())
	}
	_, infoBefore, _ := s.Registry().Get("g")

	// Close a wedge: adding an edge between two neighbors of a shared
	// vertex creates at least one new triangle.
	var u, v light.VertexID
	found := false
	for c := 0; c < g.NumVertices() && !found; c++ {
		nbrs := g.Neighbors(light.VertexID(c))
		for i := 0; i < len(nbrs) && !found; i++ {
			for j := i + 1; j < len(nbrs) && !found; j++ {
				if !g.HasEdge(nbrs[i], nbrs[j]) {
					u, v, found = nbrs[i], nbrs[j], true
				}
			}
		}
	}
	if !found {
		t.Fatal("fixture graph has no open wedge")
	}
	w = do(t, s, "POST", "/graphs/g/edges", map[string]any{
		"add": [][2]light.VertexID{{u, v}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("apply edges status = %d: %s", w.Code, w.Body.String())
	}
	var mut struct {
		Fingerprint string `json:"fingerprint"`
		Generation  uint64 `json:"generation"`
		DeltaEdges  int    `json:"delta_edges"`
		Aliases     int    `json:"aliases"`
	}
	decode(t, w, &mut)
	if mut.Fingerprint == infoBefore.Fingerprint {
		t.Fatal("mutation did not change the fingerprint")
	}
	if mut.Generation != 1 || mut.DeltaEdges != 1 || mut.Aliases != 2 {
		t.Fatalf("mutation response = %+v, want gen 1, 1 delta edge, 2 aliases", mut)
	}
	// Both names observe the new fingerprint.
	for _, name := range []string{"g", "alias"} {
		if _, info, _ := s.Registry().Get(name); info.Fingerprint != mut.Fingerprint {
			t.Fatalf("%s registry fingerprint %s, want %s", name, info.Fingerprint, mut.Fingerprint)
		}
	}

	// The post-mutation count runs fresh (new cache key) and is larger.
	w = do(t, s, "POST", "/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("post-mutation query status = %d: %s", w.Code, w.Body.String())
	}
	var after QueryResponse
	decode(t, w, &after)
	if after.Cached {
		t.Fatal("post-mutation query served the pre-mutation cached result")
	}
	if after.Matches <= ref {
		t.Fatalf("post-mutation matches %d, want > %d", after.Matches, ref)
	}
	if after.Report == nil || after.Report.DeltaEdges != 1 || after.Report.SnapshotGen != 1 {
		t.Fatalf("post-mutation report = %+v, want delta_edges 1 / snapshot_gen 1", after.Report)
	}

	// Compaction folds the overlay into a fresh CSR: the delta
	// accounting clears, the fingerprint moves to the compacted CSR's
	// (invalidating overlay-keyed cache entries), and the count is
	// unchanged.
	w = do(t, s, "POST", "/graphs/g/edges", map[string]any{"compact": true})
	if w.Code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", w.Code, w.Body.String())
	}
	var comp struct {
		Fingerprint string `json:"fingerprint"`
		Generation  uint64 `json:"generation"`
		DeltaEdges  int    `json:"delta_edges"`
	}
	decode(t, w, &comp)
	if comp.Fingerprint == mut.Fingerprint {
		t.Fatal("compaction kept the overlay fingerprint")
	}
	if comp.DeltaEdges != 0 || comp.Generation != 2 {
		t.Fatalf("compaction response = %+v, want gen 2, 0 delta edges", comp)
	}
	w = do(t, s, "POST", "/query", body)
	var compacted QueryResponse
	decode(t, w, &compacted)
	if compacted.Matches != after.Matches {
		t.Fatalf("compaction changed count: %d -> %d", after.Matches, compacted.Matches)
	}
}

// TestApplyEdgesRejectsSparseGrowth: an added endpoint at or past the
// vertex count plus two per added edge would leave ids with no edge,
// and every later run would allocate per id, so the batch is refused
// with 400 and the graph keeps its size. A dense growth batch is still
// accepted.
func TestApplyEdgesRejectsSparseGrowth(t *testing.T) {
	s, g, _ := testServer(t, Config{})
	n := light.VertexID(g.NumVertices())
	w := do(t, s, "POST", "/graphs/g/edges", map[string]any{"add": [][2]light.VertexID{{0, 200000000}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("sparse growth status = %d: %s", w.Code, w.Body.String())
	}
	if got := light.VertexID(g.NumVertices()); got != n {
		t.Fatalf("refused batch changed the vertex count %d -> %d", n, got)
	}
	w = do(t, s, "POST", "/graphs/g/edges", map[string]any{"add": [][2]light.VertexID{{0, n}, {n, n + 1}}})
	if w.Code != http.StatusOK {
		t.Fatalf("dense growth status = %d: %s", w.Code, w.Body.String())
	}
	if got := light.VertexID(g.NumVertices()); got != n+2 {
		t.Fatalf("dense growth: %d vertices, want %d", got, n+2)
	}
}
