package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"light"
)

// maxRequestBytes bounds request bodies; batch root lists are the
// largest legitimate payload.
const maxRequestBytes = 8 << 20

// QueryOptions is the options block shared by /query, /enumerate, and
// /batch requests. Zero values mean the library defaults (LIGHT,
// HybridBitmap, one worker).
type QueryOptions struct {
	// Algorithm is SE, LM, MSC, or LIGHT (any case; "" is LIGHT).
	Algorithm string `json:"algorithm,omitempty"`
	// Kernel is Merge, MergeBlock, Galloping, Hybrid, HybridBlock, or
	// HybridBitmap; empty selects the library default
	// (light.ParseIntersection), and the result cache keys on the
	// resolved kernel, so "" and "HybridBitmap" share their entries.
	Kernel string `json:"kernel,omitempty"`
	// Workers is the query's cap on the governor's shared worker pool;
	// above the governor's Slots it is cut to Slots.
	Workers int `json:"workers,omitempty"`
	// MemoryBudgetBytes caps this query's candidate-arena bytes,
	// nesting under the server-wide budget.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// TimeoutMS is the per-query deadline in milliseconds; 0 applies
	// the server default. The server's MaxDeadline clamps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (the fresh
	// result is still stored).
	NoCache bool `json:"no_cache,omitempty"`
}

// patternSpec is an inline pattern definition for callers querying
// shapes outside the named catalog.
type patternSpec struct {
	// Name labels the pattern (cosmetic; defaults to "custom").
	Name string `json:"name,omitempty"`
	// N is the vertex count; Edges the undirected edge list over 0..N-1.
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// queryRequest is the body of /query and /enumerate.
type queryRequest struct {
	// Graph names a registered graph; Pattern a catalog pattern
	// (P1..P7, triangle, clique4, ...). PatternGraph defines an inline
	// pattern instead of Pattern.
	Graph        string       `json:"graph"`
	Pattern      string       `json:"pattern,omitempty"`
	PatternGraph *patternSpec `json:"pattern_graph,omitempty"`
	// Limit caps /enumerate rows (ignored by /query); 0 applies the
	// server default.
	Limit   int          `json:"limit,omitempty"`
	Options QueryOptions `json:"options"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	// Graph echoes the request and Pattern names the pattern it
	// resolved to — this request's, also on a cache hit warmed under
	// other names; Matches is the exact count.
	Graph   string `json:"graph"`
	Pattern string `json:"pattern"`
	Matches uint64 `json:"matches"`
	// Order is the enumeration order the planner chose.
	Order []int `json:"order"`
	// DurationNS is this request's wall time (0 ns re-enumeration on a
	// cache hit); Cached reports whether the result came from the cache.
	DurationNS int64 `json:"duration_ns"`
	Cached     bool  `json:"cached"`
	// Report is the run's full metrics report (the original run's on a
	// cache hit).
	Report *light.RunReport `json:"report,omitempty"`
}

// decodeRequest parses the JSON body into v. The body is one JSON value:
// anything but whitespace after it is an error, so a concatenated or
// corrupted request is refused rather than served as its first value.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: data after the JSON body")
	}
	return nil
}

// resolvePattern returns the pattern a request names or defines inline.
func resolvePattern(name string, spec *patternSpec) (*light.Pattern, error) {
	switch {
	case name != "" && spec != nil:
		return nil, errors.New("set pattern or pattern_graph, not both")
	case name != "":
		return light.PatternByName(name)
	case spec != nil:
		name = spec.Name
		if name == "" {
			name = "custom"
		}
		return light.NewPattern(name, spec.N, spec.Edges)
	default:
		return nil, errors.New("missing pattern")
	}
}

// buildOptions translates wire options into light.Options under the
// server's governor.
func (s *Server) buildOptions(qo QueryOptions) (light.Options, error) {
	algo, err := light.ParseAlgorithm(qo.Algorithm)
	if err != nil {
		return light.Options{}, err
	}
	kern, err := light.ParseIntersection(qo.Kernel)
	if err != nil {
		return light.Options{}, err
	}
	if qo.Workers < 0 || qo.MemoryBudgetBytes < 0 || qo.TimeoutMS < 0 {
		return light.Options{}, errors.New("options must be non-negative")
	}
	return light.Options{
		Algorithm:        algo,
		Intersection:     kern,
		Workers:          qo.Workers,
		MemoryBudget:     qo.MemoryBudgetBytes,
		Governor:         s.gov,
		AdmissionTimeout: s.cfg.AdmissionTimeout,
	}, nil
}

// queryContext applies the per-query deadline policy to the request
// context. A timeout_ms too large for a time.Duration saturates, so
// MaxDeadline clamps it like any other.
func (s *Server) queryContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		d = time.Duration(math.MaxInt64)
		if timeoutMS <= math.MaxInt64/int64(time.Millisecond) {
			d = time.Duration(timeoutMS) * time.Millisecond
		}
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// statusForRunError maps run failures to HTTP statuses: overload →
// 429, memory budget → 507 Insufficient Storage, deadline or stall →
// 504 Gateway Timeout; anything else is a 400-class option error the
// caller can fix, reported as 400.
func statusForRunError(err error) int {
	switch {
	case errors.Is(err, light.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, light.ErrMemoryBudget):
		return http.StatusInsufficientStorage
	case errors.Is(err, light.ErrTimeLimit),
		errors.Is(err, light.ErrStalled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// handleLoadGraph loads a graph file into the registry.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var req struct {
		// Name registers the graph; Path is the server-local file.
		Name string `json:"name"`
		Path string `json:"path"`
	}
	if err := decodeRequest(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Path == "" {
		s.writeError(w, http.StatusBadRequest, "missing path")
		return
	}
	info, err := s.reg.Load(req.Name, req.Path)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// handleListGraphs lists registered graphs.
func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

// handleUnloadGraph removes a graph name. Cache entries are invalidated
// only when the last name referencing the snapshot is unloaded:
// load-once deduplication lets several names share one snapshot, and
// their cache entries (keyed by the shared fingerprint) must survive an
// alias being dropped.
func (s *Server) handleUnloadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fp, lastRef, ok := s.reg.Unload(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "graph %q not loaded", name)
		return
	}
	invalidated := 0
	if s.cache != nil && lastRef {
		invalidated = s.cache.InvalidateGraph(fp)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"unloaded":    name,
		"invalidated": invalidated,
		"shared":      !lastRef,
	})
}

// handleApplyEdges applies an edge batch to a registered graph and
// publishes the new snapshot: earlier-started queries finish against
// the view they pinned, later requests see (and cache under) the new
// fingerprint. All registry names sharing the graph move together.
func (s *Server) handleApplyEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		// Add and Remove are undirected edge batches in the graph's
		// result numbering; endpoints beyond the vertex count grow the
		// graph, and an Add endpoint at or past the vertex count plus
		// 2·len(Add) is answered 400. Compact folds all pending deltas
		// into a fresh CSR after applying the batch.
		Add     [][2]light.VertexID `json:"add,omitempty"`
		Remove  [][2]light.VertexID `json:"remove,omitempty"`
		Compact bool                `json:"compact,omitempty"`
	}
	if err := decodeRequest(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 && !req.Compact {
		s.writeError(w, http.StatusBadRequest, "empty edge batch (set add, remove, or compact)")
		return
	}
	g, _, ok := s.reg.Get(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "graph %q not loaded", name)
		return
	}
	// k added edges introduce at most 2k new ids, so a larger endpoint
	// would leave ids with no edge — and every later run allocates one
	// root, and Compact one CSR offset, per id.
	limit := uint64(g.NumVertices()) + 2*uint64(len(req.Add))
	for _, e := range req.Add {
		if hi := uint64(max(e[0], e[1])); hi >= limit {
			s.writeError(w, http.StatusBadRequest, "apply edges on %s: endpoint %d is not below %d (vertex count + 2 per added edge)", name, hi, limit)
			return
		}
	}
	oldFP := g.Fingerprint()
	snap, err := g.ApplyEdges(req.Add, req.Remove)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "apply edges on %s: %v", name, err)
		return
	}
	if req.Compact {
		if snap, err = g.Compact(); err != nil {
			s.writeError(w, http.StatusInternalServerError, "compacting %s: %v", name, err)
			return
		}
	}
	infos := s.reg.RefreshInfo(g)
	// The pre-mutation snapshot is no longer reachable through any
	// registry name (aliases share the mutable graph), so its cache
	// entries are dead weight; reclaim them.
	invalidated := 0
	if s.cache != nil && snap.Fingerprint() != oldFP {
		invalidated = s.cache.InvalidateGraph(oldFP)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"graph":       name,
		"fingerprint": fmt.Sprintf("%016x", snap.Fingerprint()),
		"generation":  snap.Generation(),
		"delta_edges": snap.DeltaEdges(),
		"vertices":    snap.NumVertices(),
		"edges":       snap.NumEdges(),
		"invalidated": invalidated,
		"aliases":     len(infos),
	})
}

// prepared is the front half /query, /enumerate and /batch share:
// the graph found, the options resolved, and the graph's current
// snapshot pinned in them. The pin makes the request atomic against
// concurrent edge batches: the run, the cache key, and the stored
// fingerprint all describe the same view.
type prepared struct {
	g    *light.Graph
	opts light.Options // resolved, Snapshot pinned
}

// prepare looks up the request's graph, resolves its options, and pins
// the graph's current snapshot.
func (s *Server) prepare(graph string, qo QueryOptions) (prepared, int, error) {
	if graph == "" {
		return prepared{}, http.StatusBadRequest, errors.New("missing graph")
	}
	g, _, ok := s.reg.Get(graph)
	if !ok {
		return prepared{}, http.StatusNotFound, fmt.Errorf("graph %q not loaded", graph)
	}
	opts, err := s.buildOptions(qo)
	if err != nil {
		return prepared{}, http.StatusBadRequest, err
	}
	opts.Snapshot = g.Snapshot()
	return prepared{g: g, opts: opts}, 0, nil
}

// cacheKey composes a result-cache key from what the request says:
// endpoint | pinned snapshot fingerprint | resolved option set | what,
// where what spells the pattern structure (light.Pattern.StructureKey)
// and, per /batch member, its narrowing. The option set is exactly the
// options that can change the reply (workers and deadlines shift wall
// time and scheduling, never matches or the deterministic counters).
// No plan is searched to name a query: equal fingerprints mean the same
// base CSR and pending delta, hence the same planner statistics, and
// the wire carries no order override, so the plan — and with it every
// deterministic counter of the reply — is a function of exactly these
// fields. "" when caching is disabled.
func (s *Server) cacheKey(ep endpoint, pr *prepared, what string) string {
	if s.cache == nil {
		return ""
	}
	o := &pr.opts
	return fmt.Sprintf("%s|%016x|algo=%s;kern=%s;mem=%d|%s", endpointNames[ep], o.Snapshot.Fingerprint(),
		o.Algorithm, o.Intersection, o.MemoryBudget, what)
}

// cachedResponse is a response body the result cache can hold.
type cachedResponse interface {
	// asHit returns the stored response as the reply to a request that
	// hit it: marked cached, no run time, and carrying that request's
	// graph and pattern names — several registry names share a
	// snapshot and a pattern's name is not part of the key, so the
	// warming request's names are not this one's. It must not modify
	// what the cache holds.
	asHit(graph string, patterns []string) any
}

func (r QueryResponse) asHit(graph string, patterns []string) any {
	r.Graph, r.Pattern = graph, patterns[0]
	r.Cached, r.DurationNS = true, 0
	return r
}

func (r BatchResponse) asHit(graph string, patterns []string) any {
	r.Graph = graph
	r.Cached, r.DurationNS = true, 0
	r.Queries = slices.Clone(r.Queries)
	for i := range r.Queries {
		r.Queries[i].Pattern = patterns[i]
	}
	return r
}

// serveCached answers the request from the result cache when key is
// cached, reporting whether it did. graph and patterns are the names
// this request used.
func (s *Server) serveCached(w http.ResponseWriter, ep endpoint, key, graph string, patterns []string) bool {
	if key == "" {
		return false
	}
	v, ok := s.cache.Get(key)
	if !ok {
		return false
	}
	s.served[ep].Add(1)
	s.writeJSON(w, http.StatusOK, v.(cachedResponse).asHit(graph, patterns))
	return true
}

// serveFresh stores a response just computed on pr's snapshot under key
// and answers the request with it.
func (s *Server) serveFresh(w http.ResponseWriter, ep endpoint, pr *prepared, key string, resp cachedResponse, entry ReportEntry) {
	if key != "" {
		s.cache.Put(key, pr.opts.Snapshot.Fingerprint(), resp)
	}
	s.served[ep].Add(1)
	entry.Endpoint, entry.When = endpointNames[ep], time.Now().UTC()
	s.reports.add(entry)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleQuery runs a count query, serving repeats from the result
// cache.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeRequest(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pr, status, err := s.prepare(req.Graph, req.Options)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	p, err := resolvePattern(req.Pattern, req.PatternGraph)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := s.cacheKey(epQuery, &pr, p.StructureKey())
	if !req.Options.NoCache && s.serveCached(w, epQuery, key, req.Graph, []string{p.Name()}) {
		return
	}
	ctx, cancel := s.queryContext(r, req.Options.TimeoutMS)
	defer cancel()
	start := time.Now()
	res, err := light.CountContext(ctx, pr.g, p, pr.opts)
	if err != nil {
		s.writeError(w, statusForRunError(err), "count %s on %s: %v", p.Name(), req.Graph, err)
		return
	}
	s.serveFresh(w, epQuery, &pr, key, QueryResponse{
		Graph:      req.Graph,
		Pattern:    p.Name(),
		Matches:    res.Matches,
		Order:      res.Order,
		DurationNS: time.Since(start).Nanoseconds(),
		Report:     res.Report,
	}, ReportEntry{Graph: req.Graph, Pattern: p.Name(), Report: res.Report})
}

// enumerateRow is one NDJSON line of a match stream.
type enumerateRow struct {
	// Mapping is the data vertex matched to each pattern vertex.
	Mapping []light.VertexID `json:"mapping"`
}

// enumerateTrailer is the final NDJSON line of a match stream.
type enumerateTrailer struct {
	// Done marks the trailer; Rows is how many rows were streamed;
	// Truncated reports the row limit cut the stream short.
	Done      bool `json:"done"`
	Rows      int  `json:"rows"`
	Truncated bool `json:"truncated"`
	// Error carries a mid-stream failure (deadline, stall); empty on
	// success. The HTTP status is already committed when streaming
	// starts, so stream consumers must check this field.
	Error string `json:"error,omitempty"`
}

// handleEnumerate streams matches as NDJSON rows with a row limit.
func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeRequest(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Limit < 0 {
		s.writeError(w, http.StatusBadRequest, "limit must be non-negative")
		return
	}
	limit := req.Limit
	if limit == 0 {
		limit = s.cfg.EnumerateRowLimit
	}
	if limit > s.cfg.MaxEnumerateRows {
		limit = s.cfg.MaxEnumerateRows
	}
	pr, status, err := s.prepare(req.Graph, req.Options)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	p, err := resolvePattern(req.Pattern, req.PatternGraph)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := s.queryContext(r, req.Options.TimeoutMS)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	rows, writeErr := 0, error(nil)
	truncated := false
	_, err = light.EnumerateContext(ctx, pr.g, p, pr.opts, func(m []light.VertexID) bool {
		row := enumerateRow{Mapping: make([]light.VertexID, len(m))}
		copy(row.Mapping, m)
		if writeErr = enc.Encode(row); writeErr != nil {
			return false // client went away; stop enumerating
		}
		rows++
		if flusher != nil && rows%64 == 0 {
			flusher.Flush()
		}
		if rows >= limit {
			truncated = true
			return false
		}
		return true
	})
	trailer := enumerateTrailer{Done: true, Rows: rows, Truncated: truncated}
	if err != nil && !truncated && writeErr == nil {
		trailer.Error = err.Error()
	}
	if encErr := enc.Encode(trailer); encErr != nil {
		s.errors.Add(1)
	}
	if flusher != nil {
		flusher.Flush()
	}
	s.served[epEnumerate].Add(1)
	s.reports.add(ReportEntry{
		Endpoint: endpointNames[epEnumerate], Graph: req.Graph, Pattern: p.Name(),
		When: time.Now().UTC(),
	})
}

// batchQueryRequest is one member of a /batch request.
type batchQueryRequest struct {
	// Pattern / PatternGraph select the pattern, as in /query.
	Pattern      string       `json:"pattern,omitempty"`
	PatternGraph *patternSpec `json:"pattern_graph,omitempty"`
	// Roots restricts matches to those rooted in this vertex set;
	// MinDegree to matches using only vertices of at least this degree.
	Roots     []light.VertexID `json:"roots,omitempty"`
	MinDegree int              `json:"min_degree,omitempty"`
}

// batchRequest is the /batch body: up to hundreds of queries evaluated
// against one graph, narrowed queries of one plan sharing bit-parallel
// lanes.
type batchRequest struct {
	// Graph names a registered graph; Queries are the batch members.
	Graph   string              `json:"graph"`
	Queries []batchQueryRequest `json:"queries"`
	Options QueryOptions        `json:"options"`
}

// BatchQueryResponse is one query's slice of a /batch response.
type BatchQueryResponse struct {
	// Pattern echoes the query; Matches is its exact individual count
	// (equal to a solo run of the same query).
	Pattern string `json:"pattern"`
	Matches uint64 `json:"matches"`
	// Report is the query's attributed metrics report.
	Report *light.RunReport `json:"report,omitempty"`
}

// BatchResponse is the /batch response body.
type BatchResponse struct {
	// Graph echoes the request. Groups is how many shared traversals
	// the batch compiled into; Workers the size of the one pool they ran on.
	Graph   string `json:"graph"`
	Groups  int    `json:"groups"`
	Workers int    `json:"workers"`
	// DurationNS is this request's wall time (0 on a cache hit);
	// Cached reports a cache hit.
	DurationNS int64 `json:"duration_ns"`
	Cached     bool  `json:"cached"`
	// Degradations lists governor degradation events for the batch.
	Degradations []string `json:"degradations,omitempty"`
	// Queries hold per-query results in request order.
	Queries []BatchQueryResponse `json:"queries"`
}

// handleBatch runs a batch of queries via CountBatch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeRequest(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	pr, status, err := s.prepare(req.Graph, req.Options)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	queries := make([]light.BatchQuery, len(req.Queries))
	names := make([]string, len(req.Queries))
	var members strings.Builder
	for i := range req.Queries {
		bq := &req.Queries[i]
		p, err := resolvePattern(bq.Pattern, bq.PatternGraph)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "batch query %d: %v", i, err)
			return
		}
		if bq.MinDegree < 0 {
			s.writeError(w, http.StatusBadRequest, "batch query %d: min_degree must be non-negative", i)
			return
		}
		queries[i] = light.BatchQuery{
			Pattern:   p,
			Roots:     bq.Roots,
			MinDegree: bq.MinDegree,
		}
		names[i] = p.Name()
		if s.cache != nil { // a root list is worth not sorting for a key nobody reads
			fmt.Fprintf(&members, "%s;mind=%d;roots=%s|", p.StructureKey(), bq.MinDegree, rootsKey(bq.Roots))
		}
	}
	key := s.cacheKey(epBatch, &pr, members.String())
	if !req.Options.NoCache && s.serveCached(w, epBatch, key, req.Graph, names) {
		return
	}

	ctx, cancel := s.queryContext(r, req.Options.TimeoutMS)
	defer cancel()
	start := time.Now()
	bres, err := light.CountBatchContext(ctx, pr.g, queries, pr.opts)
	if err != nil {
		s.writeError(w, statusForRunError(err), "batch on %s: %v", req.Graph, err)
		return
	}
	resp := BatchResponse{
		Graph:        req.Graph,
		Groups:       bres.Groups,
		Workers:      bres.Workers,
		DurationNS:   time.Since(start).Nanoseconds(),
		Degradations: bres.Degradations,
		Queries:      make([]BatchQueryResponse, len(bres.Queries)),
	}
	for i, qres := range bres.Queries {
		resp.Queries[i] = BatchQueryResponse{
			Pattern: names[i],
			Matches: qres.Matches,
			Report:  qres.Report,
		}
	}
	s.serveFresh(w, epBatch, &pr, key, resp, ReportEntry{
		Graph:   req.Graph,
		Pattern: fmt.Sprintf("%d queries", len(queries)),
		Report:  bres.Queries[len(bres.Queries)-1].Report,
	})
}

// rootsKey canonicalizes a root set for the cache key: sorted and
// deduplicated, so semantically equal sets share entries.
func rootsKey(roots []light.VertexID) string {
	if roots == nil {
		return "all"
	}
	set := slices.Clone(roots)
	slices.Sort(set)
	return fmt.Sprint(slices.Compact(set))
}
