package parallel

import (
	"sort"
	"sync"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/supervise"
)

// unitID identifies one unit of work — a claimed root chunk or a
// donated frame — in the checkpoint ledger. 0 is the pseudo-root: the
// already-committed state a resumed run starts from.
type unitID int64

// unit is the ledger's record of one work unit. A unit is *done* when
// the worker executing it returned cleanly, and *committed* when its
// whole ancestry is also done — only then is its result delta folded
// into the checkpointable base. The distinction matters because a
// donated frame's subtree is carved out of its donor's loop: if the
// donor never finishes, a resumed run re-executes the donor's unit in
// full (donation decisions are not replayed), which re-covers the
// frame's subtree. Committing the frame's delta early would then count
// those matches twice.
type unit struct {
	parent    unitID
	done      bool
	committed bool
	delta     engine.Result
	lo, hi    int64         // root-slice index range; frames use -1
	frame     *engine.Frame // non-nil for frame units until commit
	children  []unitID
}

// ledger tracks which work units have committed, accumulating the
// exactly-once result base and completed root ranges a checkpoint
// snapshot persists. A nil *ledger is valid and inert, so the
// scheduler hot loop calls it unconditionally.
type ledger struct {
	mu    sync.Mutex
	next  unitID
	units map[unitID]*unit
	roots []graph.VertexID // the run's root slice, for index→id conversion
	done  []supervise.RootRange
	base  engine.Result
	fp    uint64
	werr  error // most recent periodic checkpoint write failure
}

// newLedger starts a ledger for a run over roots, seeded with the
// committed state (base result and done ranges) of the checkpoint the
// run resumes from, if any.
func newLedger(roots []graph.VertexID, fp uint64, base engine.Result, done []supervise.RootRange) *ledger {
	l := &ledger{
		units: map[unitID]*unit{},
		roots: roots,
		base:  base,
		fp:    fp,
	}
	l.done = append(l.done, done...)
	return l
}

// beginChunk registers a claimed root chunk [lo, hi) (indices into the
// run's root slice) and returns its unit.
//
//lightvet:ignore hotpath -- ledger bookkeeping runs once per chunk, not per node
func (l *ledger) beginChunk(lo, hi int64) unitID {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.units[l.next] = &unit{parent: 0, lo: lo, hi: hi}
	return l.next
}

// beginFrame registers a donated frame under the unit that donated it
// (0 for frames seeded from a loaded checkpoint, whose covering work
// is already committed). Only dynamic hook plumbing reaches it, so it
// carries no hotpath obligation to suppress.
func (l *ledger) beginFrame(parent unitID, f *engine.Frame) unitID {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.units[l.next] = &unit{parent: parent, lo: -1, hi: -1, frame: f}
	if pu := l.units[parent]; pu != nil {
		pu.children = append(pu.children, l.next)
	}
	return l.next
}

// finish marks a unit done with its result delta and commits it — and
// any buffered done descendants — once its ancestry is committed.
//
//lightvet:ignore hotpath -- ledger bookkeeping runs once per chunk/frame, not per node
func (l *ledger) finish(id unitID, delta engine.Result) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.units[id]
	if u == nil || u.done {
		return
	}
	u.done = true
	// Lane counters alias the enumerator's persistent per-lane buffer,
	// which the worker resets on its next chunk; a stored delta must
	// own its copy.
	delta.Lanes = append([]engine.LaneCounts(nil), delta.Lanes...)
	u.delta = delta
	if l.parentCommitted(u) {
		l.commit(id, u)
	}
}

// parentCommitted reports whether a unit's parent has committed. A
// parent missing from the map has committed and been pruned.
func (l *ledger) parentCommitted(u *unit) bool {
	if u.parent == 0 {
		return true
	}
	pu := l.units[u.parent]
	return pu == nil || pu.committed
}

// commit folds the unit's delta into the base, records its root range,
// cascades into buffered done children, and prunes the unit. Callers
// hold l.mu.
func (l *ledger) commit(id unitID, u *unit) {
	u.committed = true
	l.base.Add(u.delta)
	if u.frame == nil && u.lo >= 0 {
		l.appendRootRanges(u.lo, u.hi)
	}
	u.frame = nil
	children := u.children
	delete(l.units, id)
	for _, c := range children {
		if cu := l.units[c]; cu != nil && cu.done && !cu.committed {
			l.commit(c, cu)
		}
	}
}

// appendRootRanges converts the root-slice index range [lo, hi) into
// vertex-id ranges and appends them to the committed set: each maximal
// run of consecutive ids, ascending or descending, becomes one range
// (the slice may have holes after a resume). Callers hold l.mu.
func (l *ledger) appendRootRanges(lo, hi int64) {
	for i := lo; i < hi; {
		j := i + 1
		if j < hi {
			if step := int64(l.roots[j]) - int64(l.roots[i]); step == 1 || step == -1 {
				for j < hi && int64(l.roots[j])-int64(l.roots[j-1]) == step {
					j++
				}
			}
		}
		a, b := l.roots[i], l.roots[j-1]
		l.done = append(l.done, supervise.RootRange{Lo: min(a, b), Hi: max(a, b) + 1})
		i = j
	}
}

// noteWriteErr records a periodic checkpoint write failure. A later
// successful write supersedes it (the on-disk state is good again).
func (l *ledger) noteWriteErr(err error) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.werr = err
	l.mu.Unlock()
}

// snapshot captures the committed state as a persistable checkpoint:
// the base result, merged done ranges, and every outstanding frame
// whose covering work is committed (frames under an uncommitted
// ancestor are omitted — re-executing that ancestor re-covers them).
func (l *ledger) snapshot(cursor int64) *supervise.Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	ck := &supervise.Checkpoint{
		Fingerprint: l.fp,
		Cursor:      cursor,
		Base:        l.base,
		Done:        mergeRanges(l.done),
	}
	// The base's lane counters keep accumulating after the lock drops;
	// the snapshot must own a stable copy for the file write.
	ck.Base.Lanes = append([]engine.LaneCounts(nil), l.base.Lanes...)
	// Keep the stored set compact; the merge result is authoritative.
	l.done = ck.Done
	ids := make([]unitID, 0, len(l.units))
	for id := range l.units {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		u := l.units[id]
		if u.frame != nil && !u.done && l.parentCommitted(u) {
			ck.Frames = append(ck.Frames, u.frame)
		}
	}
	return ck
}

// mergeRanges sorts and coalesces overlapping or adjacent root ranges.
func mergeRanges(rs []supervise.RootRange) []supervise.RootRange {
	if len(rs) == 0 {
		return nil
	}
	sorted := append([]supervise.RootRange(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Lo != sorted[j].Lo {
			return sorted[i].Lo < sorted[j].Lo
		}
		return sorted[i].Hi < sorted[j].Hi
	})
	out := sorted[:1]
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// pendingRoots returns the root vertex ids of an n-vertex graph not
// covered by the committed ranges — every root for a fresh run, the ones
// a resumed run still has to enumerate otherwise — in descending id
// order. The graph constructors relabel ids degree-ascending
// (graph.Reorder), so this is the heaviest-first order pool.claim's
// chunk sizing relies on; any other order is still exact, only less
// balanced.
func pendingRoots(n int, done []supervise.RootRange) []graph.VertexID {
	merged := mergeRanges(done)
	roots := make([]graph.VertexID, 0, n)
	v := int64(n) - 1
	for i := len(merged) - 1; i >= 0; i-- {
		for ; v >= int64(merged[i].Hi); v-- {
			roots = append(roots, graph.VertexID(v))
		}
		v = min(v, int64(merged[i].Lo)-1)
	}
	for ; v >= 0; v-- {
		roots = append(roots, graph.VertexID(v))
	}
	return roots
}
