package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"light"
)

// testServer builds a Server plus a graph registered as "g", returning
// the direct triangle count as reference.
func testServer(t *testing.T, cfg Config) (*Server, *light.Graph, uint64) {
	t.Helper()
	s := New(cfg)
	g := light.GenerateBarabasiAlbert(400, 5, 3)
	if _, err := s.Registry().Add("g", g); err != nil {
		t.Fatalf("registering graph: %v", err)
	}
	p, err := light.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := light.Count(g, p, light.Options{})
	if err != nil {
		t.Fatalf("reference count: %v", err)
	}
	return s, g, ref.Matches
}

// do posts body (marshalled to JSON) to path and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decode unmarshals the recorder body into v.
func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
}

// TestStatusForRunError pins the governor-error → HTTP-status contract:
// overload 429, memory budget 507, deadline and stall 504, everything
// else 400.
func TestStatusForRunError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{light.ErrOverloaded, http.StatusTooManyRequests},
		{light.ErrMemoryBudget, http.StatusInsufficientStorage},
		{light.ErrTimeLimit, http.StatusGatewayTimeout},
		{light.ErrStalled, http.StatusGatewayTimeout},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{fmt.Errorf("wrapped: %w", light.ErrOverloaded), http.StatusTooManyRequests},
		{errors.New("bad option"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := statusForRunError(c.err); got != c.want {
			t.Errorf("statusForRunError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestQueryCountAndCacheHit runs the same count twice: the first runs
// the engine, the second must be served from the result cache with the
// identical Matches, and /stats must show the hit.
func TestQueryCountAndCacheHit(t *testing.T) {
	s, _, ref := testServer(t, Config{})
	body := queryRequest{Graph: "g", Pattern: "triangle"}

	w := do(t, s, "POST", "/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("first query status = %d: %s", w.Code, w.Body.String())
	}
	var first QueryResponse
	decode(t, w, &first)
	if first.Matches != ref {
		t.Fatalf("matches = %d, want %d", first.Matches, ref)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if first.Report == nil {
		t.Fatal("first query carried no report")
	}

	w = do(t, s, "POST", "/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("second query status = %d: %s", w.Code, w.Body.String())
	}
	var second QueryResponse
	decode(t, w, &second)
	if !second.Cached {
		t.Fatal("second identical query was not served from cache")
	}
	if second.Matches != first.Matches {
		t.Fatalf("cached matches = %d, want %d", second.Matches, first.Matches)
	}

	var stats StatsResponse
	decode(t, do(t, s, "GET", "/stats", nil), &stats)
	if stats.Cache == nil || stats.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit", stats.Cache)
	}
	if stats.Served["query"] != 2 {
		t.Fatalf("served[query] = %d, want 2", stats.Served["query"])
	}
	if len(stats.LastReports) == 0 {
		t.Fatal("no reports retained in /stats")
	}
}

// TestQueryOptionsChangeCacheKey: the cache keys on the resolved kernel
// — "" and the default's own name share one entry, every other kernel
// gets its own — and a no_cache request is never served from it.
func TestQueryOptionsChangeCacheKey(t *testing.T) {
	s, _, ref := testServer(t, Config{})
	base := queryRequest{Graph: "g", Pattern: "triangle"}
	for _, c := range []struct {
		kernel     string
		wantCached bool
		wantKernel string
	}{
		{"", false, "HybridBitmap"},
		{"HybridBitmap", true, "HybridBitmap"},
		{"HybridBlock", false, "HybridBlock"},
		{"HybridBlock", true, "HybridBlock"},
		{"Merge", false, "Merge"},
		{"", true, "HybridBitmap"},
	} {
		req := base
		req.Options.Kernel = c.kernel
		var r QueryResponse
		decode(t, do(t, s, "POST", "/query", req), &r)
		if r.Cached != c.wantCached {
			t.Fatalf("kernel %q: cached = %v, want %v", c.kernel, r.Cached, c.wantCached)
		}
		if r.Matches != ref || r.Report == nil || r.Report.Kernel != c.wantKernel {
			t.Fatalf("kernel %q: matches %d (want %d), report %+v (want kernel %s)", c.kernel, r.Matches, ref, r.Report, c.wantKernel)
		}
	}

	noCache := base
	noCache.Options.NoCache = true
	var r3 QueryResponse
	decode(t, do(t, s, "POST", "/query", noCache), &r3)
	if r3.Cached {
		t.Fatal("no_cache request was served from cache")
	}
}

// TestQueryRequestErrors pins the 4xx mapping for malformed requests.
func TestQueryRequestErrors(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown graph", queryRequest{Graph: "nope", Pattern: "triangle"}, http.StatusNotFound},
		{"missing graph", queryRequest{Pattern: "triangle"}, http.StatusBadRequest},
		{"unknown pattern", queryRequest{Graph: "g", Pattern: "dodecahedron"}, http.StatusBadRequest},
		{"missing pattern", queryRequest{Graph: "g"}, http.StatusBadRequest},
		{"bad algorithm", queryRequest{Graph: "g", Pattern: "triangle",
			Options: QueryOptions{Algorithm: "QUANTUM"}}, http.StatusBadRequest},
		{"bad kernel", queryRequest{Graph: "g", Pattern: "triangle",
			Options: QueryOptions{Kernel: "Quicksort"}}, http.StatusBadRequest},
		{"negative tau", queryRequest{Graph: "g", Pattern: "triangle",
			Options: QueryOptions{HubDegreeThreshold: -1}}, http.StatusBadRequest},
		{"both patterns", queryRequest{Graph: "g", Pattern: "triangle",
			PatternGraph: &patternSpec{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := do(t, s, "POST", "/query", c.body); w.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
	}
	if w := do(t, s, "POST", "/query", json.RawMessage(`{"graph": 42}`)); w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", w.Code)
	}
}

// TestInlinePatternQuery counts an inline pattern_graph triangle and
// must agree with the catalog triangle.
func TestInlinePatternQuery(t *testing.T) {
	s, _, ref := testServer(t, Config{})
	var resp QueryResponse
	w := do(t, s, "POST", "/query", queryRequest{
		Graph:        "g",
		PatternGraph: &patternSpec{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	decode(t, w, &resp)
	if resp.Matches != ref {
		t.Fatalf("inline triangle matches = %d, want %d", resp.Matches, ref)
	}
}

// TestEnumerateStreamsNDJSON checks the row stream: every line is a
// mapping row until the trailer, the row count matches the count
// query, and a small limit truncates with the trailer saying so.
func TestEnumerateStreamsNDJSON(t *testing.T) {
	s, _, ref := testServer(t, Config{})

	w := do(t, s, "POST", "/enumerate", queryRequest{Graph: "g", Pattern: "triangle", Limit: 100000})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	rows, trailer := scanStream(t, w.Body.Bytes())
	if uint64(rows) != ref {
		t.Fatalf("streamed %d rows, want %d", rows, ref)
	}
	if !trailer.Done || trailer.Truncated || trailer.Error != "" {
		t.Fatalf("trailer = %+v", trailer)
	}

	w = do(t, s, "POST", "/enumerate", queryRequest{Graph: "g", Pattern: "triangle", Limit: 7})
	rows, trailer = scanStream(t, w.Body.Bytes())
	if rows != 7 || !trailer.Truncated || trailer.Rows != 7 {
		t.Fatalf("limited stream: rows = %d, trailer = %+v", rows, trailer)
	}

	if w := do(t, s, "POST", "/enumerate", queryRequest{Graph: "g", Pattern: "triangle",
		Options: QueryOptions{TailCount: true}}); w.Code != http.StatusBadRequest {
		t.Fatalf("tail_count enumerate: status = %d, want 400", w.Code)
	}
}

// scanStream parses an NDJSON body into its row count and trailer.
func scanStream(t *testing.T, body []byte) (int, enumerateTrailer) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	var trailer enumerateTrailer
	sawTrailer := false
	for sc.Scan() {
		line := sc.Bytes()
		if sawTrailer {
			t.Fatalf("data after trailer: %s", line)
		}
		if strings.Contains(string(line), `"done"`) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("bad trailer %q: %v", line, err)
			}
			sawTrailer = true
			continue
		}
		var row enumerateRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		if len(row.Mapping) == 0 {
			t.Fatalf("empty mapping row: %s", line)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTrailer {
		t.Fatal("stream ended without trailer")
	}
	if trailer.Rows != rows {
		t.Fatalf("trailer.Rows = %d, stream had %d", trailer.Rows, rows)
	}
	return rows, trailer
}

// TestBatchEndpoint runs a mixed batch and checks each query's exact
// count, then repeats it for a cache hit.
func TestBatchEndpoint(t *testing.T) {
	s, g, refTriangle := testServer(t, Config{})
	sq, err := light.PatternByName("square")
	if err != nil {
		t.Fatal(err)
	}
	refSquare, err := light.Count(g, sq, light.Options{})
	if err != nil {
		t.Fatal(err)
	}

	body := batchRequest{
		Graph: "g",
		Queries: []batchQueryRequest{
			{Pattern: "triangle"},
			{Pattern: "square"},
			{Pattern: "triangle", MinDegree: 8},
		},
	}
	w := do(t, s, "POST", "/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	decode(t, w, &resp)
	if len(resp.Queries) != 3 {
		t.Fatalf("got %d query results, want 3", len(resp.Queries))
	}
	if resp.Queries[0].Matches != refTriangle {
		t.Fatalf("batch triangle = %d, want %d", resp.Queries[0].Matches, refTriangle)
	}
	if resp.Queries[1].Matches != refSquare.Matches {
		t.Fatalf("batch square = %d, want %d", resp.Queries[1].Matches, refSquare.Matches)
	}
	if resp.Queries[2].Matches >= refTriangle {
		t.Fatalf("min_degree batch member = %d, want < %d", resp.Queries[2].Matches, refTriangle)
	}
	if resp.Groups < 1 {
		t.Fatalf("groups = %d", resp.Groups)
	}

	var again BatchResponse
	decode(t, do(t, s, "POST", "/batch", body), &again)
	if !again.Cached {
		t.Fatal("repeated batch was not served from cache")
	}
	if again.Queries[0].Matches != refTriangle || again.Queries[1].Matches != refSquare.Matches {
		t.Fatal("cached batch returned different counts")
	}

	if w := do(t, s, "POST", "/batch", batchRequest{Graph: "g"}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, want 400", w.Code)
	}
}

// TestGraphLifecycle loads a graph from a file over HTTP, queries it,
// unloads it, and checks the cache entries died with it.
func TestGraphLifecycle(t *testing.T) {
	s, _, _ := testServer(t, Config{})

	path := filepath.Join(t.TempDir(), "tiny.txt")
	// A 4-clique: every triangle query counts 4.
	edges := "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
	if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/graphs", map[string]string{"name": "tiny", "path": path})
	if w.Code != http.StatusOK {
		t.Fatalf("load status = %d: %s", w.Code, w.Body.String())
	}
	var info GraphInfo
	decode(t, w, &info)
	if info.Vertices != 4 || info.Edges != 6 {
		t.Fatalf("loaded info = %+v", info)
	}

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	decode(t, do(t, s, "GET", "/graphs", nil), &list)
	if len(list.Graphs) != 2 {
		t.Fatalf("listed %d graphs, want 2", len(list.Graphs))
	}

	var resp QueryResponse
	decode(t, do(t, s, "POST", "/query", queryRequest{Graph: "tiny", Pattern: "triangle"}), &resp)
	if resp.Matches != 4 {
		t.Fatalf("4-clique triangles = %d, want 4", resp.Matches)
	}

	w = do(t, s, "DELETE", "/graphs/tiny", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("unload status = %d: %s", w.Code, w.Body.String())
	}
	var un struct {
		Unloaded    string `json:"unloaded"`
		Invalidated int    `json:"invalidated"`
	}
	decode(t, w, &un)
	if un.Invalidated < 1 {
		t.Fatalf("invalidated = %d, want >= 1", un.Invalidated)
	}
	if w := do(t, s, "POST", "/query", queryRequest{Graph: "tiny", Pattern: "triangle"}); w.Code != http.StatusNotFound {
		t.Fatalf("query after unload: status = %d, want 404", w.Code)
	}
	if w := do(t, s, "DELETE", "/graphs/tiny", nil); w.Code != http.StatusNotFound {
		t.Fatalf("double unload: status = %d, want 404", w.Code)
	}
}

// TestRegistryLoadOnceDedup loads the same file under two names and
// checks both names share one in-memory snapshot.
func TestRegistryLoadOnceDedup(t *testing.T) {
	s := New(Config{})
	path := filepath.Join(t.TempDir(), "dup.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := s.Registry().Load("a", path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Registry().Load("b", path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	ga, _, _ := s.Registry().Get("a")
	gb, _, _ := s.Registry().Get("b")
	if ga != gb {
		t.Fatal("same content loaded twice: snapshots not deduplicated")
	}
	// Re-loading an existing name with the same content is idempotent.
	if _, err := s.Registry().Load("a", path); err != nil {
		t.Fatalf("idempotent reload failed: %v", err)
	}
}

// TestOverloadedMapsTo429: with the server's only governor slot held by
// a blocked direct run, an HTTP query must fail admission with 429.
func TestOverloadedMapsTo429(t *testing.T) {
	s, g, _ := testServer(t, Config{Slots: 1, AdmissionTimeout: 30 * time.Millisecond})
	p, err := light.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := light.Enumerate(g, p, light.Options{Governor: s.Governor()}, func([]light.VertexID) bool {
			once.Do(func() { close(started) })
			<-hold
			return true
		})
		if err != nil {
			t.Errorf("holder run failed: %v", err)
		}
	}()
	<-started
	w := do(t, s, "POST", "/query", queryRequest{Graph: "g", Pattern: "triangle",
		Options: QueryOptions{NoCache: true}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", w.Code, w.Body.String())
	}
	close(hold)
	wg.Wait()
}

// TestMemoryBudgetMapsTo507: a per-query budget too small for one
// worker's candidate arena must surface as 507.
func TestMemoryBudgetMapsTo507(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry().Add("g", light.GenerateBarabasiAlbert(600, 5, 7)); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/query", queryRequest{Graph: "g", Pattern: "triangle",
		Options: QueryOptions{Workers: 2, MemoryBudgetBytes: 64}})
	if w.Code != http.StatusInsufficientStorage {
		t.Fatalf("status = %d, want 507: %s", w.Code, w.Body.String())
	}
	var er errorResponse
	decode(t, do(t, s, "POST", "/query", queryRequest{Graph: "g", Pattern: "triangle",
		Options: QueryOptions{Workers: 2, MemoryBudgetBytes: 64}}), &er)
	if er.Status != http.StatusInsufficientStorage || er.Error == "" {
		t.Fatalf("error body = %+v", er)
	}
}

// TestDeadlineMapsTo504: a 1ms deadline on a non-trivial count must
// expire into 504.
func TestDeadlineMapsTo504(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry().Add("g", light.GenerateBarabasiAlbert(8000, 16, 11)); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/query", queryRequest{Graph: "g", Pattern: "clique5",
		Options: QueryOptions{TimeoutMS: 1}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", w.Code, w.Body.String())
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var body map[string]any
	decode(t, w, &body)
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

// TestCacheDisabled: CacheEntries < 0 must serve correct results with
// no cache section in /stats and no Cached repeats.
func TestCacheDisabled(t *testing.T) {
	s, _, ref := testServer(t, Config{CacheEntries: -1})
	body := queryRequest{Graph: "g", Pattern: "triangle"}
	var r1, r2 QueryResponse
	decode(t, do(t, s, "POST", "/query", body), &r1)
	decode(t, do(t, s, "POST", "/query", body), &r2)
	if r1.Matches != ref || r2.Matches != ref {
		t.Fatalf("matches = %d/%d, want %d", r1.Matches, r2.Matches, ref)
	}
	if r1.Cached || r2.Cached {
		t.Fatal("cache disabled but a response reported cached")
	}
	var stats StatsResponse
	decode(t, do(t, s, "GET", "/stats", nil), &stats)
	if stats.Cache != nil {
		t.Fatalf("cache stats present with caching disabled: %+v", stats.Cache)
	}
}
