// Package pattern represents pattern (query) graphs and the
// pattern-side machinery of the paper: automorphism enumeration,
// Grochow–Kellis symmetry-breaking partial orders (Section II-A), and
// vertex-induced subgraphs. Pattern graphs are tiny (the paper assumes
// |V(P)| is a constant, ≤ ~8 here), so bitmask adjacency and brute-force
// permutation search are appropriate.
package pattern

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxVertices bounds pattern size; bitmask representations rely on it.
const MaxVertices = 16

// Vertex identifies a pattern vertex (u_i in the paper).
type Vertex = int

// Pattern is a small undirected, unlabeled, connected graph. Immutable
// after construction.
type Pattern struct {
	name string
	n    int
	adj  [MaxVertices]uint32 // adjacency bitmasks
	m    int
}

// New builds a pattern over n vertices from an edge list. Vertices are
// 0..n-1. Duplicate edges are tolerated; self-loops are an error.
func New(name string, n int, edges [][2]Vertex) (*Pattern, error) {
	if n < 1 || n > MaxVertices {
		return nil, fmt.Errorf("pattern: vertex count %d out of range [1,%d]", n, MaxVertices)
	}
	p := &Pattern{name: name, n: n}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("pattern %s: edge (%d,%d) out of range", name, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("pattern %s: self-loop at %d", name, u)
		}
		if p.adj[u]&(1<<uint(v)) == 0 {
			p.adj[u] |= 1 << uint(v)
			p.adj[v] |= 1 << uint(u)
			p.m++
		}
	}
	return p, nil
}

// MustNew is New for static pattern definitions; it panics on error.
func MustNew(name string, n int, edges [][2]Vertex) *Pattern {
	p, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pattern's name.
func (p *Pattern) Name() string { return p.name }

// NumVertices returns n = |V(P)|.
func (p *Pattern) NumVertices() int { return p.n }

// NumEdges returns m = |E(P)|.
func (p *Pattern) NumEdges() int { return p.m }

// HasEdge reports whether (u, v) ∈ E(P).
func (p *Pattern) HasEdge(u, v Vertex) bool { return p.adj[u]&(1<<uint(v)) != 0 }

// Degree returns d(u).
func (p *Pattern) Degree(u Vertex) int { return bits.OnesCount32(p.adj[u]) }

// NeighborMask returns the adjacency bitmask of u.
func (p *Pattern) NeighborMask(u Vertex) uint32 { return p.adj[u] }

// Neighbors returns N(u) in ascending order.
func (p *Pattern) Neighbors(u Vertex) []Vertex { return maskToSlice(p.adj[u]) }

// Edges returns each undirected edge once, with u < v, in lexicographic
// order.
func (p *Pattern) Edges() [][2]Vertex {
	out := make([][2]Vertex, 0, p.m)
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				out = append(out, [2]Vertex{u, v})
			}
		}
	}
	return out
}

// IsConnected reports whether P is connected (assumption 1 in II-A).
func (p *Pattern) IsConnected() bool {
	if p.n == 0 {
		return true
	}
	return p.connectedMask(uint32(1<<uint(p.n))-1, 0)
}

// connectedMask reports whether the vertex-induced subgraph on mask is
// connected, starting the walk from vertex start (which must be in mask).
func (p *Pattern) connectedMask(mask uint32, start Vertex) bool {
	visited := uint32(1 << uint(start))
	frontier := visited
	for frontier != 0 {
		next := uint32(0)
		for f := frontier; f != 0; f &= f - 1 {
			u := bits.TrailingZeros32(f)
			next |= p.adj[u] & mask
		}
		frontier = next &^ visited
		visited |= frontier
	}
	return visited == mask
}

// InducedConnected reports whether P[mask], the vertex-induced subgraph on
// the vertices in mask, is connected. An empty mask is connected.
func (p *Pattern) InducedConnected(mask uint32) bool {
	if mask == 0 {
		return true
	}
	return p.connectedMask(mask, bits.TrailingZeros32(mask))
}

// String renders the pattern as name(n=…, m=…, edges).
func (p *Pattern) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(n=%d, m=%d:", p.name, p.n, p.m)
	for _, e := range p.Edges() {
		fmt.Fprintf(&sb, " %d-%d", e[0], e[1])
	}
	sb.WriteByte(')')
	return sb.String()
}

// StructureKey spells the pattern's structure as given: vertex count
// and per-vertex adjacency masks in hex ("n=3;adj=6,5,3," for the
// triangle), and nothing cosmetic. Two patterns have equal keys iff
// they have the same edges over the same vertex numbering, whatever
// their names. It is the one spelling shared by plan.CompatKey (lane
// grouping) and lightd's result-cache key.
func (p *Pattern) StructureKey() string {
	b := make([]byte, 0, 8+5*p.n)
	b = append(b, "n="...)
	b = strconv.AppendInt(b, int64(p.n), 10)
	b = append(b, ";adj="...)
	for u := 0; u < p.n; u++ {
		b = strconv.AppendUint(b, uint64(p.adj[u]), 16)
		b = append(b, ',')
	}
	return string(b)
}

// Automorphisms enumerates Aut(P): every permutation σ of V(P) with
// (u,v) ∈ E ⇔ (σu,σv) ∈ E. Brute force over n! permutations with degree
// pruning; n is tiny.
func (p *Pattern) Automorphisms() [][]Vertex {
	perm := make([]Vertex, p.n)
	used := uint32(0)
	var out [][]Vertex
	var rec func(i int)
	rec = func(i int) {
		if i == p.n {
			cp := make([]Vertex, p.n)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		for v := 0; v < p.n; v++ {
			if used&(1<<uint(v)) != 0 || p.Degree(i) != p.Degree(v) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) != p.HasEdge(v, perm[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm[i] = v
			used |= 1 << uint(v)
			rec(i + 1)
			used &^= 1 << uint(v)
		}
	}
	rec(0)
	return out
}

// PartialOrder is a set of symmetry-breaking constraints u < v on pattern
// vertices: a match φ must satisfy φ(u) < φ(v) for every pair.
type PartialOrder struct {
	// Less[u] is the bitmask of vertices v with constraint u < v.
	Less [MaxVertices]uint32
	n    int
}

// Pairs returns the constraints as (u, v) pairs with u < v required.
func (po *PartialOrder) Pairs() [][2]Vertex {
	var out [][2]Vertex
	for u := 0; u < po.n; u++ {
		for m := po.Less[u]; m != 0; m &= m - 1 {
			out = append(out, [2]Vertex{u, bits.TrailingZeros32(m)})
		}
	}
	return out
}

// Empty reports whether there are no constraints (|Aut(P)| = 1).
func (po *PartialOrder) Empty() bool {
	for u := 0; u < po.n; u++ {
		if po.Less[u] != 0 {
			return false
		}
	}
	return true
}

// String renders the constraints like the paper's figures: "u0<u1, u2<u3".
func (po *PartialOrder) String() string {
	pairs := po.Pairs()
	if len(pairs) == 0 {
		return "∅"
	}
	parts := make([]string, len(pairs))
	for i, pr := range pairs {
		parts[i] = fmt.Sprintf("u%d<u%d", pr[0], pr[1])
	}
	return strings.Join(parts, ", ")
}

// SymmetryBreaking computes a symmetry-breaking partial order with the
// Grochow–Kellis construction the paper cites [7]: repeatedly pick the
// smallest vertex v lying in a non-trivial orbit of the remaining
// automorphism group, emit v < u for every other u in v's orbit, and
// restrict the group to the stabilizer of v. The result guarantees each
// isomorphic subgraph is counted exactly once (verified in tests against
// |Aut|-normalized brute force).
func SymmetryBreaking(p *Pattern) *PartialOrder {
	auts := p.Automorphisms()
	po := &PartialOrder{n: p.n}
	for len(auts) > 1 {
		// Orbit of each vertex under the current group.
		var orbit [MaxVertices]uint32
		for _, a := range auts {
			for u := 0; u < p.n; u++ {
				orbit[u] |= 1 << uint(a[u])
			}
		}
		// Smallest vertex with a non-trivial orbit.
		v := -1
		for u := 0; u < p.n; u++ {
			if bits.OnesCount32(orbit[u]) > 1 {
				v = u
				break
			}
		}
		if v == -1 {
			break // group non-trivial but orbits all singletons: cannot happen
		}
		po.Less[v] |= orbit[v] &^ (1 << uint(v))
		// Stabilizer of v.
		var stab [][]Vertex
		for _, a := range auts {
			if a[v] == v {
				stab = append(stab, a)
			}
		}
		auts = stab
	}
	return po
}

func maskToSlice(m uint32) []Vertex {
	out := make([]Vertex, 0, bits.OnesCount32(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros32(m))
	}
	return out
}
