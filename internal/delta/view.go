package delta

import (
	"light/internal/bitset"
	"light/internal/graph"
)

// View is one snapshot's adjacency: a base CSR and, when edge deltas
// are pending, the overlay over it. It is the one place that chooses
// between the two; every reader of a snapshot — the engine, the
// scheduler, lanes, Diff and the public Graph — goes through it. A View
// is a small immutable value, safe to copy and to read concurrently.
//
// Degree, Neighbors and HubBitmap take ids below NumVertices; HasEdge
// takes any id and reports false past the view's end.
type View struct {
	base *graph.Graph
	ov   *Overlay // nil when the view is the base itself
}

// NewView returns the view of base through ov (nil for base itself).
// It panics when ov was built over a different base: a query would
// then read one graph's lists with another graph's vertex range, and
// only a programming error can produce the pair.
func NewView(base *graph.Graph, ov *Overlay) View {
	if ov != nil && ov.base != base {
		panic("delta: overlay was built over a different base graph")
	}
	return View{base: base, ov: ov}
}

// Base returns the CSR under the view.
func (w View) Base() *graph.Graph { return w.base }

// Overlay returns the view's pending edge deltas, or nil when the view
// is its base CSR.
func (w View) Overlay() *Overlay { return w.ov }

// NumVertices returns the view's vertex count.
//
//light:hotpath
func (w View) NumVertices() int {
	if w.ov != nil {
		return w.ov.NumVertices()
	}
	return w.base.NumVertices()
}

// NumEdges returns the view's undirected edge count.
func (w View) NumEdges() int64 {
	if w.ov != nil {
		return w.ov.NumEdges()
	}
	return w.base.NumEdges()
}

// MaxDegree returns an upper bound on the view's maximum degree, exact
// without an overlay (see Overlay.MaxDegree).
func (w View) MaxDegree() int {
	if w.ov != nil {
		return w.ov.MaxDegree()
	}
	return w.base.MaxDegree()
}

// Degree returns v's degree in the view.
//
//light:hotpath
func (w View) Degree(v graph.VertexID) int {
	if w.ov != nil {
		return w.ov.Degree(v)
	}
	return w.base.Degree(v)
}

// Neighbors returns v's sorted neighbor list in the view. The slice
// aliases overlay or CSR storage; do not modify.
//
//light:hotpath
func (w View) Neighbors(v graph.VertexID) []graph.VertexID {
	if w.ov != nil {
		return w.ov.Neighbors(v)
	}
	return w.base.Neighbors(v)
}

// HubBitmap returns the bitmap form of v's neighbor list, or nil. A
// vertex the overlay touched has one exactly when the base index holds
// one for it (see Overlay.HubBitmap).
//
//light:hotpath
func (w View) HubBitmap(v graph.VertexID) *bitset.Bitmap {
	if w.ov != nil {
		return w.ov.HubBitmap(v)
	}
	return w.base.HubBitmap(v)
}

// HasEdge reports whether (u, v) is an edge of the view; ids at or past
// NumVertices have none.
func (w View) HasEdge(u, v graph.VertexID) bool {
	if w.ov != nil {
		return w.ov.HasEdge(u, v)
	}
	if n := int64(w.base.NumVertices()); int64(u) >= n || int64(v) >= n {
		return false
	}
	return w.base.HasEdge(u, v)
}

// Fingerprint returns the view's content hash: the CSR's, or the
// overlay's composed one (see Overlay.Fingerprint).
func (w View) Fingerprint() uint64 {
	if w.ov != nil {
		return w.ov.Fingerprint()
	}
	return w.base.Fingerprint()
}

// DeltaEdges returns the pending insertions plus deletions over the
// base (0 without an overlay).
func (w View) DeltaEdges() int {
	if w.ov != nil {
		return w.ov.DeltaEdges()
	}
	return 0
}

// MemoryBytes returns the CSR's footprint plus the overlay's own.
func (w View) MemoryBytes() int64 {
	if w.ov != nil {
		return w.base.MemoryBytes() + w.ov.MemoryBytes()
	}
	return w.base.MemoryBytes()
}
