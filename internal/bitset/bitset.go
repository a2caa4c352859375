// Package bitset provides word-packed bitmaps scoped to a vertex-id
// interval. The hub-bitmap intersection strategy (Ferraz et al.,
// "Efficient Strategies for Graph Pattern Mining Algorithms on GPUs")
// represents the neighbor list of a high-degree vertex as a bitmap so
// that intersecting any sorted set against it degenerates to one O(1)
// membership probe per element — O(|small|) total, versus
// O(|small|·log|large|) for galloping.
//
// A Bitmap covers only the span [Lo, Lo+Span) of the sorted ids it was
// built from, not the whole id universe, so memory is proportional to
// the list's value range rather than |V(G)|. Contains is branch-light
// and allocation-free (hotpath-verified by lightvet).
package bitset

import "math/bits"

// wordBits is the width of one storage word.
const wordBits = 64

// Bitmap is a membership structure over a half-open uint32 interval.
// One built by FromSorted is immutable; one made by Over is changed in
// place by its owner with Add and Remove. The zero value is an empty
// bitmap containing nothing.
type Bitmap struct {
	lo    uint32
	words []uint64
	ones  int
}

// FromSorted builds a bitmap containing exactly the values of vs, which
// must be sorted ascending and duplicate-free (the CSR neighbor-list
// invariant). The bitmap's span is [vs[0], vs[len-1]+1). An empty input
// yields an empty bitmap.
func FromSorted(vs []uint32) *Bitmap {
	b := &Bitmap{}
	if len(vs) == 0 {
		return b
	}
	b.lo = vs[0]
	span := int64(vs[len(vs)-1]) - int64(vs[0]) + 1
	b.words = make([]uint64, (span+wordBits-1)/wordBits)
	for _, v := range vs {
		d := uint64(v - b.lo)
		b.words[d/wordBits] |= 1 << (d % wordBits)
	}
	b.ones = len(vs)
	return b
}

// Over returns an empty bitmap spanning [0, 64·len(words)) whose bits
// live in words, which it clears. The engine carves words from a
// worker's arena, so the bitmap is only valid while they are.
func Over(words []uint64) Bitmap {
	clear(words)
	return Bitmap{words: words}
}

// Add sets the bits of vs, which must lie in the span and not be in the
// bitmap yet.
//
//light:hotpath
func (b *Bitmap) Add(vs []uint32) {
	for _, v := range vs {
		d := uint64(v - b.lo)
		b.words[d/wordBits] |= 1 << (d % wordBits)
	}
	b.ones += len(vs)
}

// Remove clears the bits of vs, which must all be in the bitmap.
//
//light:hotpath
func (b *Bitmap) Remove(vs []uint32) {
	for _, v := range vs {
		d := uint64(v - b.lo)
		b.words[d/wordBits] &^= 1 << (d % wordBits)
	}
	b.ones -= len(vs)
}

// Contains reports whether v is in the bitmap. Values outside the span
// are simply absent — no bounds panic, no wraparound (the v < lo guard
// runs before the offset subtraction).
//
//light:hotpath
func (b *Bitmap) Contains(v uint32) bool {
	if v < b.lo {
		return false
	}
	d := uint64(v - b.lo)
	w := d / wordBits
	if w >= uint64(len(b.words)) {
		return false
	}
	return b.words[w]&(1<<(d%wordBits)) != 0
}

// Lo returns the smallest value the span covers (0 for an empty bitmap).
func (b *Bitmap) Lo() uint32 { return b.lo }

// Span returns the number of values the interval covers.
func (b *Bitmap) Span() int64 { return int64(len(b.words)) * wordBits }

// Ones returns the number of set bits, i.e. the cardinality of the set
// the bitmap was built from.
func (b *Bitmap) Ones() int { return b.ones }

// MemoryBytes returns the heap footprint of the word storage.
func (b *Bitmap) MemoryBytes() int64 { return int64(len(b.words)) * 8 }

// EstimateBytes returns the word-storage size FromSorted would allocate
// for a sorted list spanning [lo, hi] inclusive, letting callers budget
// an index without building it. lo > hi returns 0.
func EstimateBytes(lo, hi uint32) int64 {
	if lo > hi {
		return 0
	}
	span := int64(hi) - int64(lo) + 1
	return (span + wordBits - 1) / wordBits * 8
}

// count recomputes the popcount; used by tests to cross-check Ones.
func (b *Bitmap) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}
