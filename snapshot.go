package light

import (
	"errors"
	"fmt"

	"light/internal/delta"
	"light/internal/graph"
)

// Snapshot pins one published view of a mutable Graph. A query run with
// Options.Snapshot set enumerates exactly that view — edge batches
// applied concurrently by other goroutines publish new snapshots without
// disturbing pinned runs (snapshot isolation). Snapshots are cheap
// handles: pinning copies nothing, and a pinned base CSR plus overlay
// stay reachable only while some snapshot (or the graph head) references
// them.
type Snapshot struct {
	owner *Graph
	st    *snapshotState
}

// Snapshot pins the graph's latest published view.
func (g *Graph) Snapshot() *Snapshot { return &Snapshot{owner: g, st: g.snap()} }

// Generation returns the snapshot's monotonically increasing version:
// 0 at construction, +1 per effective ApplyEdges batch or Compact.
func (s *Snapshot) Generation() uint64 { return s.st.gen }

// Fingerprint returns the content hash of the snapshot's adjacency
// (base CSR plus pending deltas); equal fingerprints mean identical
// adjacency.
func (s *Snapshot) Fingerprint() uint64 { return s.st.view.Fingerprint() }

// NumVertices returns |V| of the snapshot's view.
func (s *Snapshot) NumVertices() int { return s.st.view.NumVertices() }

// NumEdges returns |E| of the snapshot's view.
func (s *Snapshot) NumEdges() int64 { return s.st.view.NumEdges() }

// DeltaEdges returns how many edge insertions plus deletions the
// snapshot carries over its base CSR (0 after construction or Compact).
func (s *Snapshot) DeltaEdges() int { return s.st.view.DeltaEdges() }

// String summarizes the snapshot.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{gen %d, n=%d m=%d, %d delta edges}",
		s.st.gen, s.st.view.NumVertices(), s.st.view.NumEdges(), s.st.view.DeltaEdges())
}

// toDeltaEdges converts public edge pairs to canonical delta edges.
func toDeltaEdges(pairs [][2]VertexID) []delta.Edge {
	if len(pairs) == 0 {
		return nil
	}
	es := make([]delta.Edge, len(pairs))
	for i, e := range pairs {
		es[i] = delta.Edge{U: graph.VertexID(e[0]), V: graph.VertexID(e[1])}.Canon()
	}
	return es
}

// ApplyEdges applies one batch of edge insertions and deletions and
// publishes the result as the graph's new snapshot, leaving every
// earlier snapshot untouched (copy-on-write: only the adjacency lists
// of vertices the batch touches are rebuilt). Vertex IDs are in the
// graph's current (degree-ordered) numbering, as returned in results;
// endpoints at or beyond NumVertices grow the graph. Duplicate edges,
// self-loops, already-present insertions, and already-absent deletions
// are ignored; a deletion beats an insertion of the same edge within
// one batch. A batch with no effective change returns the current
// snapshot unchanged.
//
// Mutations are serialized internally; concurrent queries keep running
// against whatever snapshot they started with. Deltas accumulate across
// batches on the same base CSR — call Compact periodically to fold them
// into a fresh CSR (required before checkpointing or SaveCSR).
func (g *Graph) ApplyEdges(add, remove [][2]VertexID) (*Snapshot, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap()
	base := cur.view.Base()
	ov, err := delta.Apply(base, cur.view.Overlay(), toDeltaEdges(add), toDeltaEdges(remove))
	if err != nil {
		return nil, fmt.Errorf("light: ApplyEdges: %w", err)
	}
	if ov == cur.view.Overlay() {
		return &Snapshot{owner: g, st: cur}, nil
	}
	st := &snapshotState{view: delta.NewView(base, ov), gen: cur.gen + 1, stats: cur.stats}
	g.head.Store(st)
	return &Snapshot{owner: g, st: st}, nil
}

// Compact folds the pending edge deltas into a fresh CSR and publishes
// it as the graph's new snapshot. Vertex IDs are preserved (no
// reordering), so counts and match images are unchanged; only the
// overlay indirection disappears from the enumeration hot path. With no
// pending deltas Compact is a no-op returning the current snapshot.
func (g *Graph) Compact() (*Snapshot, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap()
	if cur.view.Overlay() == nil {
		return &Snapshot{owner: g, st: cur}, nil
	}
	base, err := delta.Compact(cur.view.Overlay())
	if err != nil {
		return nil, fmt.Errorf("light: Compact: %w", err)
	}
	st := &snapshotState{view: delta.NewView(base, nil), gen: cur.gen + 1, stats: &baseStats{}}
	g.head.Store(st)
	return &Snapshot{owner: g, st: st}, nil
}

// errNilSnapshot is shared by the delta-counting entry points.
var errNilSnapshot = errors.New("light: CountDelta requires non-nil from and to snapshots")
