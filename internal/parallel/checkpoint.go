package parallel

import (
	"sort"
	"sync"

	"light/internal/engine"
	"light/internal/graph"
	"light/internal/supervise"
)

// ledger accumulates a checkpointed run's committed state: the
// exactly-once result base and the root ranges that produced it, which
// a checkpoint snapshot persists. A root chunk commits when the worker
// that claimed it finishes it cleanly; a chunk cut short by a stop or an
// error never commits, so a resumed run enumerates all of its roots
// again. A nil *ledger is valid and inert, so the scheduler hot loop
// calls it unconditionally.
type ledger struct {
	mu    sync.Mutex
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
	l := &ledger{roots: roots, base: base, fp: fp}
	l.done = append(l.done, done...)
	return l
}

// finish commits the cleanly finished root chunk [lo, hi) (indices into
// the run's root slice) with its result delta.
//
//lightvet:ignore hotpath -- ledger bookkeeping runs once per chunk, not per node
func (l *ledger) finish(lo, hi int64, delta engine.Result) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.Add(delta)
	l.appendRootRanges(lo, hi)
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
// the base result and the merged done ranges.
func (l *ledger) snapshot(cursor int64) *supervise.Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	ck := &supervise.Checkpoint{
		Fingerprint: l.fp,
		Cursor:      cursor,
		Base:        l.base,
		Done:        mergeRanges(l.done),
	}
	// Keep the stored set compact; the merge result is authoritative.
	l.done = ck.Done
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
