// Package delta is the copy-on-write mutation layer over the immutable
// CSR data graph: an Overlay holds a batch of edge insertions and
// deletions as a per-vertex sorted-list overlay, so the enumeration
// engine can run against a mutated view without rebuilding the CSR.
// View is the one reader of a (base CSR, optional overlay) pair: the
// engine, the scheduler, lanes, Diff and the public Graph read every
// snapshot's adjacency, degree, size, bitmaps and fingerprint through
// it, and nothing outside this package chooses between the two. Overlays
// are immutable once built — Apply produces a new Overlay sharing
// untouched state with its predecessor (copy-on-write), so snapshots
// pinned by in-flight queries never observe a mutation.
// Compact folds an overlay back into a fresh CSR graph with stable
// vertex IDs. See DESIGN.md §18.
//
// Correctness note: mutated views are generally no longer degree-ordered
// (a "LIGHT ordered graph"). That is safe — the symmetry-breaking
// machinery requires only a fixed total order on vertex IDs, which any
// labeling provides; degree order is a performance heuristic.
//
// Hub bitmaps: a touched vertex has a bitmap in the overlay exactly when
// the base index holds one for it, built from its merged list at Apply
// (HubBitmap). A vertex whose degree crosses τ through the overlay gets
// its bitmap at Compact.
package delta

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"light/internal/bitset"
	"light/internal/graph"
)

// Edge is an undirected edge in canonical form (U < V).
type Edge struct{ U, V graph.VertexID }

// Canon returns e with endpoints swapped into canonical U < V order.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Overlay is an immutable copy-on-write view of base plus a batch of
// edge insertions and deletions. Touched vertices carry complete merged
// sorted neighbor lists, and the touched base hubs their rebuilt
// bitmaps; untouched vertices read through to the base CSR with one
// bitset test. All read methods are safe for concurrent use.
type Overlay struct {
	base *graph.Graph

	// lists holds every touched vertex's merged list and, for a base
	// hub, its bitmap. Hot-path reads index it directly (map reads are
	// allocation-free); untouched vertices never reach it.
	lists map[graph.VertexID]touchedList
	// touched has one bit per overlay vertex; set for every vertex whose
	// list differs from base — including every vertex at or beyond the
	// base vertex count, which has no base list at all.
	touched []uint64

	n         int   // overlay vertex count (>= base count)
	m         int64 // overlay undirected edge count
	maxDegree int   // upper bound on the overlay max degree (see MaxDegree)

	// added and removed are the cumulative edge deltas relative to base
	// (canonical, sorted): applying "add added, remove removed" to base
	// reproduces this view exactly, and the two sets are disjoint.
	added   []Edge
	removed []Edge

	fpOnce sync.Once
	fp     uint64
}

// NumVertices returns the overlay's vertex count (the base count plus
// any vertices introduced by inserted edges).
func (o *Overlay) NumVertices() int { return o.n }

// NumEdges returns the overlay's undirected edge count.
func (o *Overlay) NumEdges() int64 { return o.m }

// Added returns the cumulative inserted edges relative to base
// (canonical, sorted). The slice is shared; do not modify.
func (o *Overlay) Added() []Edge { return o.added }

// Removed returns the cumulative deleted edges relative to base
// (canonical, sorted). The slice is shared; do not modify.
func (o *Overlay) Removed() []Edge { return o.removed }

// DeltaEdges returns the total number of pending edge deltas
// (insertions plus deletions) relative to base.
func (o *Overlay) DeltaEdges() int { return len(o.added) + len(o.removed) }

// MaxDegree returns an upper bound on the overlay's maximum vertex
// degree: the max of the base bound and every touched vertex's new
// degree. It can exceed the true maximum when the base's highest-degree
// vertex lost edges; callers use it only to size candidate buffers, so
// an upper bound is always safe.
func (o *Overlay) MaxDegree() int { return o.maxDegree }

// touchedList is a touched vertex's state: its complete merged sorted
// neighbor list, and its bitmap when the base indexes v as a hub and
// the list is non-empty.
type touchedList struct {
	ns []graph.VertexID
	bm *bitset.Bitmap
}

// Neighbors returns v's sorted neighbor list in the overlay view. The
// returned slice aliases overlay or base storage; do not modify.
//
//light:hotpath
func (o *Overlay) Neighbors(v graph.VertexID) []graph.VertexID {
	if o.touched[v>>6]&(uint64(1)<<(v&63)) != 0 {
		return o.lists[v].ns
	}
	return o.base.Neighbors(v)
}

// Degree returns v's degree in the overlay view.
//
//light:hotpath
func (o *Overlay) Degree(v graph.VertexID) int {
	if o.touched[v>>6]&(uint64(1)<<(v&63)) != 0 {
		return len(o.lists[v].ns)
	}
	return o.base.Degree(v)
}

// HubBitmap returns the bitmap form of v's neighbor list in the overlay
// view, or nil: the base's bitmap for an untouched vertex, the bitmap
// Apply rebuilt from the merged list for a touched base hub.
//
//light:hotpath
func (o *Overlay) HubBitmap(v graph.VertexID) *bitset.Bitmap {
	if o.touched[v>>6]&(uint64(1)<<(v&63)) != 0 {
		return o.lists[v].bm
	}
	return o.base.HubBitmap(v)
}

// HasEdge reports whether (u, v) exists in the overlay view, by binary
// search on the smaller endpoint list.
func (o *Overlay) HasEdge(u, v graph.VertexID) bool {
	if int64(u) >= int64(o.n) || int64(v) >= int64(o.n) || u == v {
		return false
	}
	if o.Degree(u) > o.Degree(v) {
		u, v = v, u
	}
	ns := o.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Fingerprint returns the overlay's composed content hash: the base
// fingerprint extended with the cumulative added and removed edge sets.
// Equal fingerprints mean the same base snapshot with the same pending
// deltas. Note that a compacted graph hashes its CSR content instead,
// so an overlay and its compaction have different fingerprints even
// though their adjacency agrees — fingerprints identify snapshots, not
// abstract graphs.
func (o *Overlay) Fingerprint() uint64 {
	o.fpOnce.Do(func() {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], o.base.Fingerprint())
		h.Write(b[:]) //lightvet:ignore hygiene -- fnv.Write cannot fail
		binary.LittleEndian.PutUint64(b[:], uint64(o.n))
		h.Write(b[:]) //lightvet:ignore hygiene -- fnv.Write cannot fail
		writeEdges := func(tag byte, es []Edge) {
			b[0] = tag
			h.Write(b[:1]) //lightvet:ignore hygiene -- fnv.Write cannot fail
			for _, e := range es {
				binary.LittleEndian.PutUint32(b[:4], e.U)
				binary.LittleEndian.PutUint32(b[4:], e.V)
				h.Write(b[:]) //lightvet:ignore hygiene -- fnv.Write cannot fail
			}
		}
		writeEdges('+', o.added)
		writeEdges('-', o.removed)
		o.fp = h.Sum64()
	})
	return o.fp
}

// MemoryBytes returns the approximate footprint of the overlay's own
// structures (base CSR excluded).
func (o *Overlay) MemoryBytes() int64 {
	var lists int64
	for _, t := range o.lists {
		lists += int64(len(t.ns)) * 4
		if t.bm != nil {
			lists += t.bm.MemoryBytes()
		}
	}
	return lists + int64(len(o.touched))*8 + int64(len(o.added)+len(o.removed))*8
}

// edgeKey packs a canonical edge into a comparable uint64.
func edgeKey(e Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// canonicalize dedups, canonicalizes, and sorts a raw edge batch,
// dropping self-loops. Returns an error on nothing — invalid vertex
// IDs cannot exist (VertexID is the full uint32 range).
func canonicalize(edges []Edge) []Edge {
	out := make([]Edge, 0, len(edges))
	seen := make(map[uint64]struct{}, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		e = e.Canon()
		k := edgeKey(e)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, e)
	}
	sortEdges(out)
	return out
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

// Apply builds a new overlay over base that extends prev (nil for a
// clean base) with the given insertions and deletions. Insertions of
// edges already present and deletions of absent edges are ignored;
// self-loops and duplicate batch entries are dropped; an edge both
// inserted and deleted in one batch is deleted (deletions win, matching
// last-writer batch semantics). prev is never modified — queries
// holding it keep an unchanged view. Inserted edges may reference
// vertices beyond the current count; the overlay grows to fit.
func Apply(base *graph.Graph, prev *Overlay, add, remove []Edge) (*Overlay, error) {
	if base == nil {
		return nil, fmt.Errorf("delta: Apply requires a base graph")
	}
	if prev != nil && prev.base != base {
		return nil, fmt.Errorf("delta: overlay belongs to a different base snapshot")
	}
	add = canonicalize(add)
	remove = canonicalize(remove)
	// Deletions win within one batch: drop the intersection from add.
	if len(add) > 0 && len(remove) > 0 {
		rm := make(map[uint64]struct{}, len(remove))
		for _, e := range remove {
			rm[edgeKey(e)] = struct{}{}
		}
		kept := add[:0]
		for _, e := range add {
			if _, dead := rm[edgeKey(e)]; !dead {
				kept = append(kept, e)
			}
		}
		add = kept
	}

	baseN := base.NumVertices()
	prevView := NewView(base, prev)
	prevN := prevView.NumVertices()

	// Partition the batch into effective insertions and deletions
	// against the previous view, grouped by endpoint.
	perVertex := make(map[graph.VertexID]vertexPatch)
	var addedCount, removedCount int
	n := prevN
	for _, e := range add {
		if prevView.HasEdge(e.U, e.V) {
			continue
		}
		addedCount++
		p := perVertex[e.U]
		p.add = append(p.add, e.V)
		perVertex[e.U] = p
		p = perVertex[e.V]
		p.add = append(p.add, e.U)
		perVertex[e.V] = p
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	for _, e := range remove {
		if !prevView.HasEdge(e.U, e.V) {
			continue
		}
		removedCount++
		p := perVertex[e.U]
		p.del = append(p.del, e.V)
		perVertex[e.U] = p
		p = perVertex[e.V]
		p.del = append(p.del, e.U)
		perVertex[e.V] = p
	}
	if addedCount == 0 && removedCount == 0 && n == prevN {
		// Complete no-op: share prev outright (or report a clean base).
		return prev, nil
	}

	o := &Overlay{
		base:    base,
		lists:   make(map[graph.VertexID]touchedList, len(perVertex)+8),
		touched: make([]uint64, (n+63)/64),
		n:       n,
	}
	// Copy-on-write: share prev's merged lists and bitmaps for vertices
	// this batch does not touch; rebuild the rest below.
	if prev != nil {
		copy(o.touched, prev.touched)
		for v, t := range prev.lists {
			o.lists[v] = t
		}
	}
	// Vertices introduced by this batch (or padding up to the new max
	// endpoint) have no base list: mark them touched so reads go to the
	// map, where a missing entry is an empty list.
	for v := prevN; v < n; v++ {
		o.touched[v>>6] |= uint64(1) << (uint(v) & 63)
	}
	for v, p := range perVertex {
		var old []graph.VertexID
		if int(v) < prevN {
			old = prevView.Neighbors(v)
		}
		t := touchedList{ns: mergePatch(old, p.add, p.del)}
		if len(t.ns) > 0 && int(v) < baseN && base.HubBitmap(v) != nil {
			t.bm = bitset.FromSorted(t.ns)
		}
		o.lists[v] = t
		o.touched[v>>6] |= uint64(1) << (v & 63)
	}

	// Cumulative added/removed relative to base: fold this batch's
	// effective changes into prev's sets. An effective insertion either
	// cancels a base-relative removal or records a base-relative
	// addition, and symmetrically for deletions.
	prevAdded, prevRemoved := map[uint64]Edge{}, map[uint64]Edge{}
	if prev != nil {
		for _, e := range prev.added {
			prevAdded[edgeKey(e)] = e
		}
		for _, e := range prev.removed {
			prevRemoved[edgeKey(e)] = e
		}
	}
	for _, e := range add {
		if !prevView.HasEdge(e.U, e.V) {
			k := edgeKey(e)
			if _, wasRemoved := prevRemoved[k]; wasRemoved {
				delete(prevRemoved, k)
			} else {
				prevAdded[k] = e
			}
		}
	}
	for _, e := range remove {
		if prevView.HasEdge(e.U, e.V) {
			k := edgeKey(e)
			if _, wasAdded := prevAdded[k]; wasAdded {
				delete(prevAdded, k)
			} else {
				prevRemoved[k] = e
			}
		}
	}
	o.added = edgeSetSlice(prevAdded)
	o.removed = edgeSetSlice(prevRemoved)
	o.m = base.NumEdges() + int64(len(o.added)) - int64(len(o.removed))

	// Conservative max-degree bound for candidate-buffer sizing.
	o.maxDegree = base.MaxDegree()
	for _, t := range o.lists {
		if len(t.ns) > o.maxDegree {
			o.maxDegree = len(t.ns)
		}
	}
	return o, nil
}

type vertexPatch struct {
	add, del []graph.VertexID
}

// mergePatch returns sorted old with add merged in and del removed.
// add and del are disjoint from/subsets of old respectively by
// construction in Apply, but the merge tolerates duplicates anyway.
func mergePatch(old, add, del []graph.VertexID) []graph.VertexID {
	sortIDs(add)
	delSet := make(map[graph.VertexID]struct{}, len(del))
	for _, v := range del {
		delSet[v] = struct{}{}
	}
	out := make([]graph.VertexID, 0, len(old)+len(add))
	i, j := 0, 0
	for i < len(old) || j < len(add) {
		var v graph.VertexID
		switch {
		case i == len(old):
			v = add[j]
			j++
		case j == len(add):
			v = old[i]
			i++
		case old[i] < add[j]:
			v = old[i]
			i++
		case old[i] > add[j]:
			v = add[j]
			j++
		default: // duplicate across old and add
			v = old[i]
			i++
			j++
		}
		if _, dead := delSet[v]; dead {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

func sortIDs(s []graph.VertexID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func edgeSetSlice(m map[uint64]Edge) []Edge {
	out := make([]Edge, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sortEdges(out)
	return out
}

// Compact folds the overlay into a fresh CSR graph with identical
// adjacency and — crucially — identical vertex IDs: no degree
// reordering, so match results, pinned snapshots, and caller-held
// vertex IDs stay comparable across compaction. The new graph computes
// its own content fingerprint and auto-builds its own hub index.
func Compact(o *Overlay) (*graph.Graph, error) {
	if o == nil {
		return nil, fmt.Errorf("delta: Compact requires an overlay")
	}
	offsets := make([]int64, o.n+1)
	var total int64
	for v := 0; v < o.n; v++ {
		total += int64(o.Degree(graph.VertexID(v)))
	}
	adj := make([]graph.VertexID, 0, total)
	for v := 0; v < o.n; v++ {
		offsets[v] = int64(len(adj))
		adj = append(adj, o.Neighbors(graph.VertexID(v))...)
	}
	offsets[o.n] = int64(len(adj))
	return graph.FromCSR(offsets, adj)
}

// Diff returns the edge sets that turn view from into view to: added
// edges present only in to, removed edges present only in from (both
// canonical, sorted). When the two views share one base graph the diff
// is computed from the cumulative overlay sets in O(delta); across a
// compaction it falls back to a full adjacency sweep, where a vertex
// past one view's end has no edges in it.
func Diff(from, to View) (added, removed []Edge) {
	if from.base == to.base {
		fa, fr := cumulative(from.ov)
		ta, tr := cumulative(to.ov)
		// to − from = (ta − fa) ∪ (fr − tr); from − to symmetric. The
		// added/removed sets of one overlay are disjoint, so set algebra
		// on the four maps is exact.
		added = append(subtractEdges(ta, fa), subtractEdges(fr, tr)...)
		removed = append(subtractEdges(fa, ta), subtractEdges(tr, fr)...)
		sortEdges(added)
		sortEdges(removed)
		return added, removed
	}
	fromN, toN := from.NumVertices(), to.NumVertices()
	for v := 0; v < max(fromN, toN); v++ {
		var fs, ts []graph.VertexID
		if v < fromN {
			fs = from.Neighbors(graph.VertexID(v))
		}
		if v < toN {
			ts = to.Neighbors(graph.VertexID(v))
		}
		i, j := 0, 0
		for i < len(fs) || j < len(ts) {
			switch {
			case j == len(ts) || (i < len(fs) && fs[i] < ts[j]):
				if fs[i] > graph.VertexID(v) {
					removed = append(removed, Edge{graph.VertexID(v), fs[i]})
				}
				i++
			case i == len(fs) || ts[j] < fs[i]:
				if ts[j] > graph.VertexID(v) {
					added = append(added, Edge{graph.VertexID(v), ts[j]})
				}
				j++
			default:
				i++
				j++
			}
		}
	}
	return added, removed
}

func cumulative(o *Overlay) (added, removed map[uint64]Edge) {
	added, removed = map[uint64]Edge{}, map[uint64]Edge{}
	if o == nil {
		return added, removed
	}
	for _, e := range o.added {
		added[edgeKey(e)] = e
	}
	for _, e := range o.removed {
		removed[edgeKey(e)] = e
	}
	return added, removed
}

func subtractEdges(a, b map[uint64]Edge) []Edge {
	var out []Edge
	for k, e := range a {
		if _, dup := b[k]; !dup {
			out = append(out, e)
		}
	}
	return out
}
