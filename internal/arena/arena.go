// Package arena provides a per-worker bump allocator for candidate-set
// buffers: chunked, reusable slabs of vertex ids that replace the
// engine's former per-enumerator make([]VertexID, dmax) × n
// allocations. A worker allocates its frame-local buffers from the
// arena, then Resets it between frames — after a short warm-up in which
// the slabs grow to the run's peak footprint, the steady state performs
// zero heap allocations (pinned by AllocsPerRun in the engine tests).
//
// An Arena is not safe for concurrent use; the parallel scheduler gives
// every worker its own.
package arena

import "light/internal/graph"

// chunkElems is an unbudgeted arena's minimum slab size in vertex ids
// (256 KiB per slab — large enough that typical patterns fit n·dmax
// buffers in one or two slabs, small enough not to dwarf the CSR arrays
// on toy graphs).
const chunkElems = 64 << 10

// Arena is a bump allocator over a list of slabs. The zero value is
// ready to use.
type Arena struct {
	slabs [][]graph.VertexID
	slab  int   // slab currently being carved
	off   int   // next free element in slabs[slab]
	bytes int64 // total slab footprint
	lim   *Limiter
}

// New returns an empty arena with an unlimited budget.
func New() *Arena { return &Arena{} }

// NewBudgeted returns an empty arena whose slabs and words are reserved
// against lim, which is a ceiling: a budgeted arena grows slabs of
// exactly the requested size, so a run whose buffers fit the budget
// gets them, and when a reservation is denied Alloc returns nil — the
// caller's signal to stop with a memory-budget error. A nil limiter is
// an unlimited budget, identical to New.
func NewBudgeted(lim *Limiter) *Arena { return &Arena{lim: lim} }

// Alloc returns a full-capacity slice of n vertex ids carved from the
// current slab. Contents are unspecified (previous-frame data may
// remain); callers treat the buffer as write-before-read scratch. The
// returned slice has its capacity clipped to n, so appends past it can
// never bleed into a neighboring allocation.
//
// On a budgeted arena (NewBudgeted) Alloc returns nil for n > 0 when
// the limiter denies the slab reservation; unbudgeted arenas never do.
//
//light:hotpath
func (a *Arena) Alloc(n int) []graph.VertexID {
	if n == 0 {
		return nil
	}
	for a.slab < len(a.slabs) {
		s := a.slabs[a.slab]
		if a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.slab++
		a.off = 0
	}
	return a.grow(n)
}

// Words returns n zeroed 64-bit words that live as long as the arena:
// they are not carved from the slabs, so Reset never rewinds them. They
// count in Bytes and against the budget like a slab, and Words returns
// nil when the budget denies them. Each call allocates: callers keep
// the words and call it once per owner, not per frame.
//
//lightvet:ignore hotpath -- called once per owner (an enumerator's mark), never per frame
func (a *Arena) Words(n int) []uint64 {
	if !a.lim.Reserve(int64(n) * 8) {
		return nil
	}
	a.bytes += int64(n) * 8
	return make([]uint64, n)
}

// grow appends a fresh slab and serves the allocation from it. This is
// the warm-up path: it runs only while the arena has not yet reached
// the run's peak per-frame footprint; once it has, Reset rewinds the
// cursor and Alloc never reaches grow again.
//
//lightvet:ignore hotpath -- slab growth is the acknowledged-cold warm-up path; steady-state Alloc stays in the bump loop above
func (a *Arena) grow(n int) []graph.VertexID {
	// An unbudgeted slab rounds up to chunkElems so later allocations
	// share it; a budgeted one is exactly the request, so the budget
	// counts only what the buffers need.
	size := n
	if a.lim == nil {
		size = max(n, chunkElems)
	} else if !a.lim.Reserve(int64(n) * 4) {
		return nil
	}
	s := make([]graph.VertexID, size)
	a.slabs = append(a.slabs, s)
	a.slab = len(a.slabs) - 1
	a.off = n
	a.bytes += int64(size) * 4
	return s[0:n:n]
}

// Reset rewinds the arena so the next Alloc reuses the first slab.
// Previously returned slices become invalid. Slab memory is retained.
//
//light:hotpath
func (a *Arena) Reset() {
	a.slab = 0
	a.off = 0
}

// Bytes returns the total footprint of the slabs and Words in bytes
// (what the run report sums into CandidateMemoryBytes).
func (a *Arena) Bytes() int64 { return a.bytes }
