package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// do posts body (marshalled to JSON, or sent as is when it is a
// []byte) to path and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
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

// postEdges applies an edge batch (the JSON body of POST
// /graphs/g/edges) to the test graph.
func postEdges(t *testing.T, s *Server, body string) {
	t.Helper()
	if w := do(t, s, "POST", "/graphs/g/edges", json.RawMessage(body)); w.Code != http.StatusOK {
		t.Fatalf("edges %s: status %d: %s", body, w.Code, w.Body.String())
	}
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

// inlineTriangle is the catalog triangle's structure under a caller's
// own name.
var inlineTriangle = &patternSpec{Name: "mine", N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}

// TestQueryCountAndCacheHit runs the same count twice: the first runs
// the engine, the second must be served from the result cache with the
// identical Matches, and /stats must show the hit. A hit answers with
// the names of the request that hit, not of the one that warmed the
// entry: a second registry name for the graph and an inline pattern of
// the same structure share the entry and read their own names back.
func TestQueryCountAndCacheHit(t *testing.T) {
	s, g, ref := testServer(t, Config{})
	if _, err := s.Registry().Add("alias", g); err != nil {
		t.Fatal(err)
	}
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

	for _, c := range []struct {
		req                    queryRequest
		wantGraph, wantPattern string
	}{
		{queryRequest{Graph: "alias", Pattern: "triangle"}, "alias", first.Pattern},
		{queryRequest{Graph: "g", PatternGraph: inlineTriangle}, "g", "mine"},
		{body, "g", first.Pattern}, // the stored entry kept its own names
	} {
		var r QueryResponse
		decode(t, do(t, s, "POST", "/query", c.req), &r)
		if !r.Cached || r.Matches != ref || r.DurationNS != 0 {
			t.Fatalf("%+v: cached = %v, matches = %d, duration = %d; want a hit with %d matches", c.req, r.Cached, r.Matches, r.DurationNS, ref)
		}
		if r.Graph != c.wantGraph || r.Pattern != c.wantPattern {
			t.Fatalf("%+v: hit answered graph %q pattern %q, want %q %q", c.req, r.Graph, r.Pattern, c.wantGraph, c.wantPattern)
		}
	}
}

// TestQueryOptionsChangeCacheKey walks one server through a sequence of
// /query requests for the same pattern: every field of the key
// separates entries — algorithm, resolved kernel ("" and the default's
// own name share one), memory_budget_bytes, and the
// snapshot (an edge batch and a compaction each start afresh) — and
// nothing else does: workers and timeout_ms still hit, and a no_cache
// request is never served from the cache.
func TestQueryOptionsChangeCacheKey(t *testing.T) {
	s, g, _ := testServer(t, Config{})
	tri, err := light.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		edges      string // an edge batch that lands before the request
		opts       QueryOptions
		wantCached bool
		wantKernel string
	}{
		{"", QueryOptions{}, false, "HybridBitmap"},
		{"", QueryOptions{Kernel: "HybridBitmap"}, true, "HybridBitmap"},
		{"", QueryOptions{Kernel: "HybridBlock"}, false, "HybridBlock"},
		{"", QueryOptions{Kernel: "HybridBlock"}, true, "HybridBlock"},
		{"", QueryOptions{Kernel: "Merge"}, false, "Merge"},
		{"", QueryOptions{}, true, "HybridBitmap"},
		{"", QueryOptions{Algorithm: "SE"}, false, "HybridBitmap"},
		{"", QueryOptions{Algorithm: "SE"}, true, "HybridBitmap"},
		{"", QueryOptions{Algorithm: "LIGHT"}, true, "HybridBitmap"},
		{"", QueryOptions{MemoryBudgetBytes: 1 << 30}, false, "HybridBitmap"},
		{"", QueryOptions{MemoryBudgetBytes: 1 << 30}, true, "HybridBitmap"},
		{"", QueryOptions{Workers: 2}, true, "HybridBitmap"},
		{"", QueryOptions{TimeoutMS: 60000}, true, "HybridBitmap"},
		{"", QueryOptions{NoCache: true}, false, "HybridBitmap"},
		{`{"add": [[0, 1], [0, 2], [1, 2]]}`, QueryOptions{}, false, "HybridBitmap"},
		{"", QueryOptions{}, true, "HybridBitmap"},
		{`{"compact": true}`, QueryOptions{}, false, "HybridBitmap"},
		{"", QueryOptions{}, true, "HybridBitmap"},
	} {
		if c.edges != "" {
			postEdges(t, s, c.edges)
		}
		ref, err := light.Count(g, tri, light.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var r QueryResponse
		decode(t, do(t, s, "POST", "/query", queryRequest{Graph: "g", Pattern: "triangle", Options: c.opts}), &r)
		if r.Cached != c.wantCached {
			t.Fatalf("step %d %+v: cached = %v, want %v", i, c.opts, r.Cached, c.wantCached)
		}
		if r.Matches != ref.Matches || r.Report == nil || r.Report.Kernel != c.wantKernel {
			t.Fatalf("step %d %+v: matches %d (want %d), report %+v (want kernel %s)", i, c.opts, r.Matches, ref.Matches, r.Report, c.wantKernel)
		}
	}
}

// TestCacheKeyPartitionMatchesPlanKey is the soundness check of keying
// on the request instead of the plan: over the catalog, relabelled and
// renamed inline copies, every algorithm spelling, and a clean, a dirty
// and a compacted snapshot, two requests get the same key exactly when
// they got the same (fingerprint, light.PlanKey, option set) — the key
// lightd used to pay a plan search per request for.
func TestCacheKeyPartitionMatchesPlanKey(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	type ref struct {
		name string
		spec *patternSpec
	}
	var patterns []ref
	for _, name := range light.CatalogNames() {
		patterns = append(patterns, ref{name: name})
	}
	patterns = append(patterns,
		// P2 and P4 with their vertices renumbered: same shape, another
		// structure as given, and another plan.
		ref{spec: &patternSpec{Name: "chordal-relabelled", N: 4, Edges: [][2]int{{1, 2}, {2, 3}, {3, 0}, {0, 1}, {1, 3}}}},
		ref{spec: &patternSpec{Name: "house-relabelled", N: 5, Edges: [][2]int{{4, 3}, {3, 2}, {2, 1}, {1, 4}, {4, 0}, {3, 0}}}},
		// P2 as given under another name: the same query.
		ref{spec: &patternSpec{Name: "chordal-renamed", N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}}},
	)
	type entry struct{ what, key, want string }
	var entries []entry
	collect := func(state string) {
		for _, pat := range patterns {
			for _, algo := range []string{"", "LIGHT", "SE", "LM", "MSC"} {
				pr, _, err := s.prepare("g", QueryOptions{Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				p, err := resolvePattern(pat.name, pat.spec)
				if err != nil {
					t.Fatal(err)
				}
				planKey, err := light.PlanKey(pr.g, p, pr.opts)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, entry{
					what: fmt.Sprintf("%s/%s/%q", state, p.Name(), algo),
					key:  s.cacheKey(epQuery, &pr, p.StructureKey()),
					want: fmt.Sprintf("%016x|%s|%v", pr.opts.Snapshot.Fingerprint(), planKey, pr.opts.Algorithm),
				})
			}
		}
	}
	collect("clean")
	for _, step := range []struct{ state, body string }{
		{"dirty", `{"add": [[0, 1], [0, 2], [1, 2], [7, 300]], "remove": [[399, 398]]}`},
		{"compacted", `{"compact": true}`},
	} {
		postEdges(t, s, step.body)
		collect(step.state)
	}
	same := 0
	for i, a := range entries {
		for _, b := range entries[:i] {
			if (a.key == b.key) != (a.want == b.want) {
				t.Errorf("%s vs %s: keys equal = %v, (fingerprint, plan key, options) equal = %v",
					a.what, b.what, a.key == b.key, a.want == b.want)
			}
			if a.key == b.key {
				same++
			}
		}
	}
	if same == 0 {
		t.Fatal("no two requests shared a key: the equal direction was never checked")
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
		{"removed option", json.RawMessage(`{"graph": "g", "pattern": "triangle", "options": {"hub_degree_threshold": 4}}`),
			http.StatusBadRequest},
		{"both patterns", queryRequest{Graph: "g", Pattern: "triangle",
			PatternGraph: &patternSpec{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}}, http.StatusBadRequest},
		// Found by FuzzQueryRequest: one Decode served the first value
		// and ignored what followed it.
		{"trailing value", []byte(`{"grAph":"g","pAttern_grAph":{"n":3,"edges":[[0,1],[1,2],[0,2]]}}0`), http.StatusBadRequest},
		{"second object", []byte(`{"graph":"g","pattern":"triangle"}{"graph":"g"}`), http.StatusBadRequest},
		{"trailing brace", []byte(`{"graph":"g","pattern":"triangle"}}`), http.StatusBadRequest},
		{"trailing whitespace", []byte("{\"graph\":\"g\",\"pattern\":\"triangle\"}\n\t "), http.StatusOK},
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

	// tail_count is no longer an option (a count-only run always counts
	// its last levels): like any unknown field, it is refused.
	for _, path := range []string{"/query", "/enumerate"} {
		if w := do(t, s, "POST", path, json.RawMessage(`{"graph": "g", "pattern": "triangle", "options": {"tail_count": true}}`)); w.Code != http.StatusBadRequest {
			t.Fatalf("tail_count %s: status = %d, want 400", path, w.Code)
		}
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

	// A hit answers with the hitting request's names: the graph's other
	// registry name, and an inline pattern's own name.
	if _, err := s.Registry().Add("alias", g); err != nil {
		t.Fatal(err)
	}
	renamed := batchRequest{Graph: "alias", Queries: append([]batchQueryRequest(nil), body.Queries...)}
	renamed.Queries[0] = batchQueryRequest{PatternGraph: inlineTriangle}
	for _, c := range []struct {
		req                  batchRequest
		wantGraph, wantFirst string
	}{
		{renamed, "alias", "mine"},
		{body, "g", resp.Queries[0].Pattern}, // the stored entry kept its own names
	} {
		var hit BatchResponse
		decode(t, do(t, s, "POST", "/batch", c.req), &hit)
		if !hit.Cached || hit.DurationNS != 0 || len(hit.Queries) != 3 {
			t.Fatalf("batch on %s: cached = %v, duration = %d, %d results; want a hit", c.req.Graph, hit.Cached, hit.DurationNS, len(hit.Queries))
		}
		if hit.Graph != c.wantGraph || hit.Queries[0].Pattern != c.wantFirst ||
			hit.Queries[1].Pattern != resp.Queries[1].Pattern || hit.Queries[2].Pattern != resp.Queries[2].Pattern {
			t.Fatalf("batch on %s: hit answered graph %q patterns %q %q %q", c.req.Graph,
				hit.Graph, hit.Queries[0].Pattern, hit.Queries[1].Pattern, hit.Queries[2].Pattern)
		}
	}

	if w := do(t, s, "POST", "/batch", batchRequest{Graph: "g"}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, want 400", w.Code)
	}
}

// TestBatchMemberChangesCacheKey: a batch member's min_degree and its
// root set are part of the key — the set, so order and duplicates do
// not matter — and a batch's members are keyed in order.
func TestBatchMemberChangesCacheKey(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	for i, c := range []struct {
		queries    []batchQueryRequest
		wantCached bool
	}{
		{[]batchQueryRequest{{Pattern: "triangle"}}, false},
		{[]batchQueryRequest{{Pattern: "triangle", MinDegree: 3}}, false},
		{[]batchQueryRequest{{Pattern: "triangle", MinDegree: 3}}, true},
		{[]batchQueryRequest{{Pattern: "triangle", Roots: []light.VertexID{395, 390, 390, 399}}}, false},
		{[]batchQueryRequest{{Pattern: "triangle", Roots: []light.VertexID{399, 395, 390}}}, true},
		{[]batchQueryRequest{{Pattern: "triangle", Roots: []light.VertexID{399, 395}}}, false},
		{[]batchQueryRequest{{Pattern: "triangle"}}, true},
		{[]batchQueryRequest{{Pattern: "triangle"}, {Pattern: "square"}}, false},
		{[]batchQueryRequest{{Pattern: "square"}, {Pattern: "triangle"}}, false},
		{[]batchQueryRequest{{Pattern: "triangle"}, {Pattern: "square"}}, true},
	} {
		var r BatchResponse
		w := do(t, s, "POST", "/batch", batchRequest{Graph: "g", Queries: c.queries})
		if w.Code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, w.Code, w.Body.String())
		}
		decode(t, w, &r)
		if r.Cached != c.wantCached {
			t.Fatalf("step %d %+v: cached = %v, want %v", i, c.queries, r.Cached, c.wantCached)
		}
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

// TestQueryContextClampsEveryTimeout: timeout_ms is clamped to
// MaxDeadline however large it is. Past about 9.2·10¹² ms, timeout_ms
// times a millisecond no longer fits a time.Duration; a wrapped,
// negative product must not slip past the clamp into no deadline.
func TestQueryContextClampsEveryTimeout(t *testing.T) {
	const maxDeadline = 2 * time.Second
	s := New(Config{DefaultDeadline: time.Second, MaxDeadline: maxDeadline})
	r := httptest.NewRequest("POST", "/query", nil)
	for _, tc := range []struct {
		timeoutMS int64
		want      time.Duration
	}{
		{0, time.Second},
		{-5, time.Second},
		{500, 500 * time.Millisecond},
		{2000, maxDeadline},
		{3000, maxDeadline},
		{math.MaxInt64 / int64(time.Millisecond), maxDeadline},
		{math.MaxInt64/int64(time.Millisecond) + 1, maxDeadline},
		{1e13, maxDeadline},
		{1 << 62, maxDeadline},
		{math.MaxInt64, maxDeadline},
	} {
		start := time.Now()
		ctx, cancel := s.queryContext(r, tc.timeoutMS)
		deadline, ok := ctx.Deadline()
		cancel()
		if !ok {
			t.Errorf("timeout_ms=%d: no deadline, want %v", tc.timeoutMS, tc.want)
			continue
		}
		// The deadline was set between start and now.
		if lo, hi := start.Add(tc.want), time.Now().Add(tc.want); deadline.Before(lo) || deadline.After(hi) {
			t.Errorf("timeout_ms=%d: deadline in %v, want %v", tc.timeoutMS, deadline.Sub(start), tc.want)
		}
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

// TestJSONRepliesKeepConnectionsAlive pins writeJSON's framing — the
// JSON value alone, its length declared — by what it is for: a client
// that decodes one value from the body and closes it gets its
// connection back whatever the reply's length. With json.Encoder's
// newline after the value, a 513-byte body (the newline alone past
// json.Decoder's first 512-byte read; likewise 1537 and 3585) made
// net/http's transport drop the connection on every such request.
func TestJSONRepliesKeepConnectionsAlive(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/query", queryRequest{Graph: "absent", Pattern: "triangle"})
	if b := w.Body.Bytes(); !json.Valid(b) || b[len(b)-1] != '}' || w.Header().Get("Content-Length") != fmt.Sprint(len(b)) {
		t.Fatalf("reply %q with Content-Length %q: want one JSON value, nothing after it, its length declared",
			b, w.Header().Get("Content-Length"))
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var dials atomic.Int64
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	}}
	defer client.CloseIdleConnections()
	// The 404 body is a constant plus the graph name: sweep its length
	// byte by byte across the decoder's read sizes and net/http's 2 KiB
	// and 4 KiB buffers, a few requests per length. A request may find
	// the connection not yet back in the idle pool and dial, so one dial
	// per length is tolerated; a length that drops connections dials
	// every time.
	const perLength = 6
	overhead := w.Body.Len() - len("absent")
	if resp, err := client.Get(ts.URL + "/healthz"); err != nil { // the one dial every client needs
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, around := range []int{513, 1537, 2049, 3585, 4097} {
		for size := around - 6; size <= around+6; size++ {
			body, err := json.Marshal(queryRequest{Graph: strings.Repeat("g", size-overhead), Pattern: "triangle"})
			if err != nil {
				t.Fatal(err)
			}
			before := dials.Load()
			for i := 0; i < perLength; i++ {
				resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var e errorResponse
				err = json.NewDecoder(resp.Body).Decode(&e)
				resp.Body.Close()
				if err != nil || e.Status != http.StatusNotFound || resp.ContentLength != int64(size) {
					t.Fatalf("reply of %d bytes: status %d, Content-Length %d, decode error %v", size, e.Status, resp.ContentLength, err)
				}
			}
			if d := dials.Load() - before; d > 1 {
				t.Errorf("%d-byte replies: %d of %d sequential requests dialed a new connection", size, d, perLength)
			}
		}
	}
}
