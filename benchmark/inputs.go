package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"light"
	"light/internal/gen"
)

// graphInput is a data graph as the program under test receives it: a
// vertex count and an edge list in the caller's own numbering.
type graphInput struct {
	N     int
	Edges [][2]light.VertexID
}

// makeGraphInput returns the suite dataset name at the given scale,
// renumbered and reshuffled by seed.
//
// The topology is the repository's fixed stand-in for a paper graph
// (internal/gen.Suite); the seed draws which isomorphic copy of it the
// program sees: a random vertex renumbering, edge order and edge
// orientation. Counts are invariant under renumbering, so every seed has
// the same right answers on an unmutated graph, while degree ties, and
// with them the search trees, differ. Drawing the topology itself from
// the seed was measured and rejected: on Barabási–Albert graphs of this
// size the few largest hubs set the cost, and the exact node count of a
// pass over the query list ranged over 25 % between five topology seeds,
// before any timing noise.
func makeGraphInput(name string, scale int, seed int64) (graphInput, error) {
	ds, err := gen.ByName(name, scale)
	if err != nil {
		return graphInput{}, err
	}
	g := ds.Make()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	edges := make([][2]light.VertexID, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(light.VertexID(v)) {
			if int(w) <= v {
				continue
			}
			a, b := light.VertexID(perm[v]), light.VertexID(perm[w])
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			edges = append(edges, [2]light.VertexID{a, b})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graphInput{N: n, Edges: edges}, nil
}

// hash folds the edge list into h.
func (in graphInput) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range in.Edges {
		for i := 0; i < 4; i++ {
			buf[i] = byte(e[0] >> (8 * i))
			buf[4+i] = byte(e[1] >> (8 * i))
		}
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	return h.Sum64()
}

// degreeSampler draws vertices with probability proportional to degree
// (hub-biased), by drawing a uniform edge endpoint.
type degreeSampler struct {
	prefix []int64 // prefix[v] = Σ degree of vertices < v
	total  int64
}

func newDegreeSampler(g *light.Graph) *degreeSampler {
	n := g.NumVertices()
	s := &degreeSampler{prefix: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		s.prefix[v+1] = s.prefix[v] + int64(g.Degree(light.VertexID(v)))
	}
	s.total = s.prefix[n]
	return s
}

func (s *degreeSampler) draw(rng *rand.Rand) light.VertexID {
	x := rng.Int63n(s.total)
	lo, hi := 0, len(s.prefix)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.prefix[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return light.VertexID(lo)
}

// edgeKey is the canonical form of an undirected edge.
func edgeKey(u, v light.VertexID) [2]light.VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]light.VertexID{u, v}
}

// hubBiasedEdges draws count distinct edges absent from g and from
// taken, both endpoints hub-biased, and records them in taken.
func hubBiasedEdges(g *light.Graph, s *degreeSampler, rng *rand.Rand, count int, taken map[[2]light.VertexID]bool) [][2]light.VertexID {
	out := make([][2]light.VertexID, 0, count)
	for len(out) < count {
		u, v := s.draw(rng), s.draw(rng)
		k := edgeKey(u, v)
		if u == v || taken[k] || g.HasEdge(u, v) {
			continue
		}
		taken[k] = true
		out = append(out, k)
	}
	return out
}

// uniformEdges draws count distinct edges absent from g with uniform
// endpoints, so the number of touched vertices is close to 2·count.
func uniformEdges(g *light.Graph, rng *rand.Rand, count int) [][2]light.VertexID {
	n := g.NumVertices()
	taken := make(map[[2]light.VertexID]bool, count)
	out := make([][2]light.VertexID, 0, count)
	for len(out) < count {
		u, v := light.VertexID(rng.Intn(n)), light.VertexID(rng.Intn(n))
		k := edgeKey(u, v)
		if u == v || taken[k] || g.HasEdge(u, v) {
			continue
		}
		taken[k] = true
		out = append(out, k)
	}
	return out
}

// Request kinds of the serving workloads.
const (
	kindQueryNoCache = iota
	kindBatch
	kindEnumerate
	kindQueryCached
	kindWrite
)

var kindNames = [...]string{"query-nocache", "batch", "enumerate", "query-cached", "write"}

// serveRequest is one prepared HTTP request: the body is marshalled in
// set-up so the measured loop only sends it.
type serveRequest struct {
	Kind    int
	Path    string
	Body    []byte
	Pattern string // catalog name; "" for a write
}

const (
	enumerateLimit = 1000
	batchMaxDegree = 4 // /batch asks one pattern at min_degree 0..4
	mixEdgeSetSize = 64
)

type wireOptions struct {
	Algorithm string `json:"algorithm,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshalling a request the harness built: %v", err))
	}
	return b
}

func queryBody(pattern string, opts wireOptions, limit int) []byte {
	req := map[string]any{"graph": "g", "pattern": pattern, "options": opts}
	if limit > 0 {
		req["limit"] = limit
	}
	return mustJSON(req)
}

// hotKeys are the 63 cache keys of serve-hot: every catalog pattern
// under three kernels and three algorithms.
func hotKeys() []serveRequest {
	var reqs []serveRequest
	for _, p := range light.CatalogNames() {
		for _, k := range []string{"HybridBlock", "Hybrid", "MergeBlock"} {
			for _, a := range []string{"LIGHT", "MSC", "LM"} {
				reqs = append(reqs, serveRequest{
					Kind: kindQueryCached, Path: "/query", Pattern: p,
					Body: queryBody(p, wireOptions{Algorithm: a, Kernel: k}, 0),
				})
			}
		}
	}
	return reqs
}

// mixTable is the request table of serve-mix. Index layout:
// kind*len(queryList)+pattern for the four read kinds, then the writes.
type mixTable struct {
	reqs []serveRequest
	// writes: add E, remove E, remove E and compact. The writer adds and
	// removes in turn and compacts on every 4th batch, always a removal.
	writes [3]int
}

func buildMixTable(edges [][2]light.VertexID) mixTable {
	var t mixTable
	for kind := kindQueryNoCache; kind <= kindQueryCached; kind++ {
		for _, p := range queryList {
			r := serveRequest{Kind: kind, Pattern: p}
			switch kind {
			case kindQueryNoCache:
				r.Path, r.Body = "/query", queryBody(p, wireOptions{Workers: 2, NoCache: true}, 0)
			case kindBatch:
				qs := make([]map[string]any, 0, batchMaxDegree+1)
				for d := 0; d <= batchMaxDegree; d++ {
					qs = append(qs, map[string]any{"pattern": p, "min_degree": d})
				}
				r.Path = "/batch"
				r.Body = mustJSON(map[string]any{"graph": "g", "queries": qs, "options": wireOptions{Workers: 2, NoCache: true}})
			case kindEnumerate:
				// Workers 1: a parallel limited stream may emit limit+1
				// rows (ROADMAP open item 0), which is a known defect
				// of the program, not a property of this workload.
				r.Path, r.Body = "/enumerate", queryBody(p, wireOptions{Workers: 1}, enumerateLimit)
			case kindQueryCached:
				r.Path, r.Body = "/query", queryBody(p, wireOptions{Workers: 2}, 0)
			}
			t.reqs = append(t.reqs, r)
		}
	}
	for i, body := range []map[string]any{
		{"add": edges}, {"remove": edges}, {"remove": edges, "compact": true},
	} {
		t.writes[i] = len(t.reqs)
		t.reqs = append(t.reqs, serveRequest{Kind: kindWrite, Path: "/graphs/g/edges", Body: mustJSON(body)})
	}
	return t
}

// mixStream draws one client's request kinds and patterns.
type mixStream struct {
	rng    *rand.Rand
	writer bool // client 0 alone writes; elsewhere a write draw is a no-cache query
}

// next returns the kind and pattern index of the client's next request.
func (s *mixStream) next() (kind, pattern int) {
	x := s.rng.Float64()
	switch {
	case x < 0.70:
		kind = kindQueryNoCache
	case x < 0.80:
		kind = kindBatch
	case x < 0.90:
		kind = kindEnumerate
	case x < 0.98:
		kind = kindQueryCached
	case s.writer:
		return kindWrite, 0
	default:
		kind = kindQueryNoCache
	}
	return kind, s.rng.Intn(len(queryList))
}

// clientSeed derives a client's generator seed from the workload seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client)*7919 + 17 }

// newZipf returns the serve-hot key generator: Zipf with exponent 1.1
// over n keys, so a few keys take most of the traffic, as in a cache.
func newZipf(rng *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(rng, 1.1, 1, uint64(n-1)) }

// deltaBatch is one mutation of delta-stream.
type deltaBatch struct {
	Add, Remove [][2]light.VertexID
}

const deltaBatchEdges = 96

// deltaStream generates the edge batches of delta-stream: each adds 96
// hub-biased edges and removes the 96 oldest still present, so the edge
// count is stationary after the first batch.
type deltaStream struct {
	g       *light.Graph
	sampler *degreeSampler
	rng     *rand.Rand
	taken   map[[2]light.VertexID]bool
	prev    [][2]light.VertexID
}

func newDeltaStream(g *light.Graph, seed int64) *deltaStream {
	return &deltaStream{
		g: g, sampler: newDegreeSampler(g), rng: rand.New(rand.NewSource(clientSeed(seed, 0))),
		taken: make(map[[2]light.VertexID]bool),
	}
}

// next returns the next batch. Edges are drawn against the base graph's
// degrees and kept distinct from every edge the stream added before, so
// a batch never re-adds an edge it is about to remove.
func (s *deltaStream) next() deltaBatch {
	b := deltaBatch{Add: hubBiasedEdges(s.g, s.sampler, s.rng, deltaBatchEdges, s.taken), Remove: s.prev}
	s.prev = b.Add
	return b
}

// sequenceHash hashes the first n inputs a workload generates from
// seed: the graph, then each client's request draws or the edge batches.
func sequenceHash(workload string, seed int64, n int) (uint64, error) {
	spec, ok := workloads[workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	in, err := makeGraphInput(spec.dataset, spec.scale, seed)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	put := func(xs ...uint64) {
		var buf [8]byte
		for _, x := range xs {
			for i := range buf {
				buf[i] = byte(x >> (8 * i))
			}
			_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
		}
	}
	put(in.hash())
	switch workload {
	case "oneshot-heavy":
		for _, i := range queryOrder(seed) {
			put(uint64(i))
		}
	case "serve-hot":
		keys := len(hotKeys())
		for c := 0; c < loadWorkers(); c++ {
			z := newZipf(rand.New(rand.NewSource(clientSeed(seed, c))), keys)
			for i := 0; i < n; i++ {
				put(z.Uint64())
			}
		}
	case "serve-mix":
		for c := 0; c < loadWorkers(); c++ {
			s := &mixStream{rng: rand.New(rand.NewSource(clientSeed(seed, c))), writer: c == 0}
			for i := 0; i < n; i++ {
				k, p := s.next()
				put(uint64(k), uint64(p))
			}
		}
	case "delta-stream":
		g := light.NewGraph(in.N, in.Edges)
		s := newDeltaStream(g, seed)
		for i := 0; i < n/deltaBatchEdges+1; i++ {
			for _, e := range s.next().Add {
				put(uint64(e[0]), uint64(e[1]))
			}
		}
	}
	return h.Sum64(), nil
}

// queryOrder returns the seed's order of the query list.
func queryOrder(seed int64) []int {
	return rand.New(rand.NewSource(clientSeed(seed, 0))).Perm(len(queryList))
}
