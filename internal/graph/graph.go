// Package graph provides the in-memory data-graph representation used by
// the LIGHT subgraph-enumeration engine: an undirected, unlabeled graph
// stored in compressed sparse row (CSR) form with sorted neighbor lists.
//
// Following the paper (Section II-A), data graphs are "ordered graphs":
// vertex IDs are assigned so that v < v' iff d(v) < d(v'), or
// d(v) = d(v') and the original ID of v is smaller. This lets the
// symmetry-breaking partial order on pattern vertices be enforced by
// comparing plain vertex IDs. Use Reorder (or Builder.BuildOrdered) to
// obtain an ordered graph from arbitrary input.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// VertexID identifies a data vertex. The paper stores IDs as 32-bit
// unsigned integers; we do the same.
type VertexID = uint32

// Graph is an undirected, unlabeled graph in CSR form. Neighbor lists are
// sorted by vertex ID and contain no duplicates or self-loops. The zero
// value is an empty graph.
type Graph struct {
	offsets []int64    // len = N+1; neighbor list of v is adj[offsets[v]:offsets[v+1]]
	adj     []VertexID // concatenated sorted neighbor lists; len = 2M

	maxDegree int
	// degreeSum2 is Σ d(v)^2, used by the cardinality estimator.
	// Cached at construction.
	degreeSum2 float64

	// hub is the degree-threshold bitmap index over high-degree
	// neighbor lists (see hub.go); auto-built by finalize, rebuilt or
	// dropped via BuildHubIndex. Published atomically so hot-path
	// readers (HubBitmap) never observe a partial rebuild; hubMu
	// serializes builds.
	hub       atomic.Pointer[hubIndex]
	hubMu     sync.Mutex
	hubBuilds atomic.Uint64

	// fp is the lazily computed content fingerprint (see Fingerprint).
	fpOnce sync.Once
	fp     uint64
}

// NumVertices returns |V(G)| (N in the paper).
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E(G)| (M in the paper): the number of undirected edges.
func (g *Graph) NumEdges() int64 {
	return int64(len(g.adj)) / 2
}

// Degree returns d(v), the number of neighbors of v. The offset index is
// computed in int64 so v = MaxUint32 cannot wrap to offsets[0].
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[int64(v)+1] - g.offsets[v])
}

// MaxDegree returns max over v of d(v) (d_max in the paper), or 0 for an
// empty graph.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// DegreeSum2 returns Σ_v d(v)^2.
func (g *Graph) DegreeSum2() float64 { return g.degreeSum2 }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[int64(v)+1]]
}

// HasEdge reports whether the edge (u, v) exists, by binary search on the
// smaller-degree endpoint's list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// MemoryBytes returns the approximate in-memory size of the CSR arrays,
// mirroring the paper's Table II "Memory" column.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.adj))*4
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{N=%d, M=%d, dmax=%d}", g.NumVertices(), g.NumEdges(), g.maxDegree)
}

// Validate checks the CSR invariants: offsets monotone, neighbor lists
// sorted and duplicate-free, no self-loops, and every edge symmetric. It is
// O(M log d_max) and intended for tests and loaders, not hot paths.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	// Offsets first: everything else indexes through them, so they must
	// be fully checked before any adjacency access (corrupted inputs
	// must error, not panic).
	if len(g.offsets) > 0 {
		if g.offsets[0] != 0 {
			return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
		}
		if g.offsets[n] != int64(len(g.adj)) {
			return fmt.Errorf("graph: offsets[N] = %d, want %d", g.offsets[n], len(g.adj))
		}
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		if g.offsets[v] < 0 || g.offsets[v+1] > int64(len(g.adj)) {
			return fmt.Errorf("graph: offsets out of range at vertex %d", v)
		}
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(VertexID(v))
		for i, w := range ns {
			if int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == VertexID(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at position %d", v, i)
			}
			if !g.HasEdge(w, VertexID(v)) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
		}
	}
	return nil
}

// finalize recomputes the cached degree statistics and auto-builds the
// hub bitmap index.
func (g *Graph) finalize() {
	g.maxDegree = 0
	g.degreeSum2 = 0
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(VertexID(v))
		if d > g.maxDegree {
			g.maxDegree = d
		}
		g.degreeSum2 += float64(d) * float64(d)
	}
	g.BuildHubIndex(0)
}

// Edge is an undirected edge between two data vertices.
type Edge struct{ U, V VertexID }

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are dropped. The zero value is ready to use.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices. Edges may
// reference vertices beyond n; the vertex count grows to fit.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge (u, v). Self-loops are ignored.
func (b *Builder) AddEdge(u, v VertexID) {
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build constructs the CSR graph, deduplicating edges.
func (b *Builder) Build() *Graph {
	n := b.n
	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[int64(e.U)+1]++
		deg[int64(e.V)+1]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v+1]
	}
	adj := make([]VertexID, offsets[n])
	cursor := make([]int64, n)
	for _, e := range b.edges {
		adj[offsets[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[offsets[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Sort each neighbor list and strip duplicates in place, compacting
	// the adjacency array.
	out := adj[:0]
	newOffsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		ns := adj[offsets[v] : offsets[v]+cursor[v]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		newOffsets[v] = int64(len(out))
		for i, w := range ns {
			if i > 0 && ns[i-1] == w {
				continue
			}
			out = append(out, w)
		}
	}
	newOffsets[n] = int64(len(out))
	g := &Graph{offsets: newOffsets, adj: out}
	g.finalize()
	return g
}

// BuildOrdered constructs the graph and then relabels it into an ordered
// graph (degree-then-ID order); see Reorder.
func (b *Builder) BuildOrdered() *Graph { return Reorder(b.Build()) }

// FromCSR constructs a graph directly from prebuilt CSR arrays,
// taking ownership of both slices (callers must not modify them
// afterwards). The arrays must satisfy the CSR invariants — offsets
// monotone with offsets[0]==0 and offsets[N]==len(adj), neighbor lists
// strictly sorted, no self-loops, every edge symmetric — and are fully
// validated, so corrupt input errors instead of corrupting later
// enumeration. Vertex IDs are preserved exactly as given (no degree
// reordering): the delta compactor uses this to publish a fresh base
// snapshot whose IDs remain stable across compaction.
func FromCSR(offsets []int64, adj []VertexID) (*Graph, error) {
	if len(offsets) == 0 {
		offsets = []int64{0}
	}
	g := &Graph{offsets: offsets, adj: adj}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.finalize()
	return g, nil
}

// FromAdjacency builds a graph directly from an adjacency list
// representation (convenient in tests). Lists need not be sorted.
func FromAdjacency(adj [][]VertexID) *Graph {
	b := NewBuilder(len(adj))
	for u, ns := range adj {
		for _, v := range ns {
			if VertexID(u) < v {
				b.AddEdge(VertexID(u), v)
			}
		}
	}
	return b.Build()
}

// Reorder relabels the vertices of g so that IDs respect the paper's total
// order: v < v' iff d(v) < d(v'), or d(v) = d(v') and the old ID of v is
// smaller. Returns a new graph; g is unchanged. The mapping makes ID
// comparison implement the "<" relation the symmetry-breaking technique
// requires.
func Reorder(g *Graph) *Graph {
	ng, _ := ReorderWithMapping(g)
	return ng
}

// ReorderWithMapping is Reorder but also returns oldToNew, the relabeling
// applied: oldToNew[old] = new.
func ReorderWithMapping(g *Graph) (*Graph, []VertexID) {
	n := g.NumVertices()
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	oldToNew := make([]VertexID, n)
	for newID, oldID := range order {
		oldToNew[oldID] = VertexID(newID)
	}
	offsets := make([]int64, n+1)
	adj := make([]VertexID, len(g.adj))
	var pos int64
	for newID := 0; newID < n; newID++ {
		offsets[newID] = pos
		for _, w := range g.Neighbors(order[newID]) {
			adj[pos] = oldToNew[w]
			pos++
		}
		ns := adj[offsets[newID]:pos]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	offsets[n] = pos
	ng := &Graph{offsets: offsets, adj: adj}
	ng.finalize()
	return ng, oldToNew
}

// IsOrdered reports whether vertex IDs are nondecreasing in degree, i.e.
// whether g is an ordered graph in the paper's sense.
func (g *Graph) IsOrdered() bool {
	prev := -1
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(VertexID(v))
		if d < prev {
			return false
		}
		prev = d
	}
	return true
}

// AverageDegree returns 2M/N, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(n)
}
