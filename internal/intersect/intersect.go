// Package intersect implements the sorted-set intersection kernels of the
// paper's Section VII-A: Merge (linear two-pointer), Galloping
// (exponential-probe binary search for cardinality-skewed inputs), and
// Hybrid (Algorithm 4: Merge when |S1|/|S2| and |S2|/|S1| are below the
// threshold δ, Galloping otherwise; δ defaults to 50 as in the paper).
//
// The paper implements Merge and Hybrid with AVX2. Go has no SIMD
// intrinsics in the standard toolchain, so this package substitutes
// Block kernels: 8-lane block-skipping, branch-reduced scalar loops with
// the same algorithmic structure (block max compare, skip-ahead) as the
// vectorized versions. See DESIGN.md §3 for why this preserves the
// experiments' shape.
//
// All kernels take strictly sorted uint32 slices and write the
// intersection into a caller-provided destination with capacity at least
// min(len(a), len(b)), keeping the hot path allocation-free. dst may
// alias a. Each kernel returns the number of elements written.
package intersect

import (
	"light/internal/bitset"
	"light/internal/graph"
)

// DefaultDelta is the Hybrid size-ratio threshold δ from the paper
// (configured as 50 based on Lemire et al.'s performance study).
const DefaultDelta = 50

// lane is the simulated SIMD width (AVX2 holds eight 32-bit lanes).
const lane = 8

// Kind selects an intersection kernel.
type Kind int

const (
	// KindMerge is the linear two-pointer merge, O(|S1|+|S2|).
	KindMerge Kind = iota
	// KindMergeBlock is Merge with 8-lane block skipping — the stand-in
	// for the paper's MergeAVX2.
	KindMergeBlock
	// KindGalloping scans the smaller set and exponentially probes the
	// larger, O(|S1|·log|S2|) for |S1| < |S2|.
	KindGalloping
	// KindHybrid is Algorithm 4 with scalar Merge.
	KindHybrid
	// KindHybridBlock is Algorithm 4 with block-skipping Merge — the
	// stand-in for the paper's HybridAVX2.
	KindHybridBlock
	// KindHybridBitmap probes hub bitmaps and falls back to HybridBlock
	// between plain lists — the production bitmap configuration.
	KindHybridBitmap
)

// String returns the kernel name as used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case KindMerge:
		return "Merge"
	case KindMergeBlock:
		return "MergeBlock"
	case KindGalloping:
		return "Galloping"
	case KindHybrid:
		return "Hybrid"
	case KindHybridBlock:
		return "HybridBlock"
	case KindHybridBitmap:
		return "HybridBitmap"
	}
	return "Unknown"
}

// ListFallback returns the pure list kernel the bitmap kind degrades to
// when no operand has a hub bitmap; list kinds return themselves.
func (k Kind) ListFallback() Kind {
	if k == KindHybridBitmap {
		return KindHybridBlock
	}
	return k
}

// UsesBitmaps reports whether k is the bitmap-probing kind.
func (k Kind) UsesBitmaps() bool { return k == KindHybridBitmap }

// Stats counts kernel invocations, letting experiments report the number
// of set intersections (Fig 5) and the Galloping share (Table III).
// Counters are not synchronized; use one Stats per worker and Add them.
type Stats struct {
	Intersections uint64 // total pairwise intersection operations
	Galloping     uint64 // how many of them used the galloping path
	Elements      uint64 // total input elements scanned (len(a)+len(b) per op)
	BitmapProbes  uint64 // elements probed against hub bitmaps
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Intersections += other.Intersections
	s.Galloping += other.Galloping
	s.Elements += other.Elements
	s.BitmapProbes += other.BitmapProbes
}

// Sub returns the counter-wise difference s − before; both must come
// from the same monotonically-growing accumulator (the lane engine uses
// it to carve one COMP's delta out of a running total).
//
//light:hotpath
func (s Stats) Sub(before Stats) Stats {
	return Stats{
		Intersections: s.Intersections - before.Intersections,
		Galloping:     s.Galloping - before.Galloping,
		Elements:      s.Elements - before.Elements,
		BitmapProbes:  s.BitmapProbes - before.BitmapProbes,
	}
}

// GallopingPercent returns the percentage of intersections that used the
// galloping path (Table III), or 0 when no intersections ran.
func (s *Stats) GallopingPercent() float64 {
	if s.Intersections == 0 {
		return 0
	}
	return 100 * float64(s.Galloping) / float64(s.Intersections)
}

// Pair intersects a and b into dst using kernel k with threshold delta,
// recording the operation in stats (which may be nil). It returns the
// number of elements written. This is the instrumented entry point the
// enumeration engines use.
//
//light:hotpath
func Pair(dst, a, b []graph.VertexID, k Kind, delta int, stats *Stats) int {
	if stats != nil {
		stats.Intersections++
		stats.Elements += uint64(len(a) + len(b))
	}
	// Pair has no bitmap operands; bitmap kinds run their list fallback
	// here (MultiWay is the bitmap-aware entry point).
	k = k.ListFallback()
	switch k {
	case KindMerge:
		return Merge(dst, a, b)
	case KindMergeBlock:
		return MergeBlock(dst, a, b)
	case KindGalloping:
		if stats != nil {
			stats.Galloping++
		}
		return Galloping(dst, a, b)
	case KindHybrid:
		if skewed(len(a), len(b), delta) {
			if stats != nil {
				stats.Galloping++
			}
			return Galloping(dst, a, b)
		}
		return Merge(dst, a, b)
	case KindHybridBlock:
		if skewed(len(a), len(b), delta) {
			if stats != nil {
				stats.Galloping++
			}
			return Galloping(dst, a, b)
		}
		return MergeBlock(dst, a, b)
	}
	return Merge(dst, a, b)
}

// Merge intersects two sorted sets with the classic two-pointer loop.
// The capacity contract is the caller's: cap(dst) must cover the full
// intersection (size it to min(len(a), len(b))); under-capacity panics
// on the write.
//
//light:hotpath
//light:cap-contract
func Merge(dst, a, b []graph.VertexID) int {
	dst = dst[:cap(dst)]
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			dst[n] = x
			n++
			i++
			j++
		} else if x < y {
			i++
		} else {
			j++
		}
	}
	return n
}

// MergeBlock is Merge restructured the way the SIMD kernel is: whole
// 8-element blocks whose maximum is below the other side's current
// minimum are skipped with a single comparison (the vector compare), and
// only value-overlapping windows are merged element-wise. Each merge
// step is branch-free (see step), so the data-dependent compares that a
// scalar two-pointer loop mispredicts about half the time become
// arithmetic. Same caller capacity contract as Merge: under-capacity
// panics on the write.
//
//light:hotpath
//light:cap-contract
func MergeBlock(dst, a, b []graph.VertexID) int {
	dst = dst[:cap(dst)]
	n := 0
	i, j := 0, 0
	for i+lane <= len(a) && j+lane <= len(b) {
		amax, bmax := a[i+lane-1], b[j+lane-1]
		if amax < b[j] {
			i += lane
			continue
		}
		if bmax < a[i] {
			j += lane
			continue
		}
		// The blocks overlap in value range, so both starting values are
		// at most lim and the inner merge makes progress.
		lim := min(amax, bmax)
		for i < len(a) && j < len(b) {
			x, y := a[i], b[j]
			if x > lim || y > lim {
				break
			}
			dst[n] = x
			n, i, j = step(x, y, n, i, j)
		}
	}
	for i < len(a) && j < len(b) {
		x := a[i]
		dst[n] = x
		n, i, j = step(x, b[j], n, i, j)
	}
	return n
}

// step is one branch-free merge step over x = a[i] and y = b[j]: lt and
// gt are the sign bits of x−y and y−x, so a match advances n, i and j,
// and otherwise only the smaller side moves. The caller writes dst[n] =
// x unconditionally before the step; n only advances past it on a
// match. That write is safe under the kernels' contracts: n ≤ min(i, j)
// < min(len(a), len(b)) ≤ cap(dst), and a dst aliasing a is written only
// at or before position i, which has already been read.
//
//light:hotpath
func step(x, y graph.VertexID, n, i, j int) (int, int, int) {
	lt := int((uint64(x) - uint64(y)) >> 63)
	gt := int((uint64(y) - uint64(x)) >> 63)
	return n + 1 - lt - gt, i + 1 - gt, j + 1 - lt
}

// gallop returns the smallest index idx >= lo with s[idx] >= x, probing
// exponentially from lo and finishing with binary search.
func gallop(s []graph.VertexID, lo int, x graph.VertexID) int {
	if lo >= len(s) || s[lo] >= x {
		return lo
	}
	bound := 1
	for lo+bound < len(s) && s[lo+bound] < x {
		bound <<= 1
	}
	hi := lo + bound
	if hi > len(s) {
		hi = len(s)
	}
	lo += bound >> 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Galloping scans the smaller set and locates each element in the larger
// one with exponential search. O(|small|·log|large|) — the right tool
// under cardinality skew. Same caller capacity contract as Merge:
// under-capacity panics on the write.
//
//light:hotpath
//light:cap-contract
func Galloping(dst, a, b []graph.VertexID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	dst = dst[:cap(dst)]
	n := 0
	j := 0
	for _, x := range a {
		j = gallop(b, j, x)
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst[n] = x
			n++
			j++
		}
	}
	return n
}

// Hybrid is Algorithm 4 with scalar Merge: Merge when the size ratio is
// below delta in both directions, Galloping otherwise. If stats is
// non-nil the invocation is counted.
func Hybrid(dst, a, b []graph.VertexID, delta int, stats *Stats) int {
	return Pair(dst, a, b, KindHybrid, delta, stats)
}

// HybridBlock is Hybrid with the block-skipping merge (the HybridAVX2
// stand-in).
func HybridBlock(dst, a, b []graph.VertexID, delta int, stats *Stats) int {
	return Pair(dst, a, b, KindHybridBlock, delta, stats)
}

// skewed reports whether the cardinality ratio reaches delta in either
// direction (the negation of Algorithm 4's Merge condition). Empty sets
// count as skewed so the O(min) galloping path handles them in O(1).
func skewed(la, lb, delta int) bool {
	if la == 0 || lb == 0 {
		return true
	}
	return la/lb >= delta || lb/la >= delta
}

// Count returns |a ∩ b| without materializing the result, using the
// hybrid strategy with threshold delta. The operation is recorded in
// stats (which may be nil) exactly like a materializing Pair call:
// counting intersections are intersections, and leaving them out of
// Stats silently skewed Fig 5/Table III-style reports and excluded the
// counting path from serial-vs-parallel counter-parity checks.
//
//light:hotpath
func Count(a, b []graph.VertexID, delta int, stats *Stats) int {
	if stats != nil {
		stats.Intersections++
		stats.Elements += uint64(len(a) + len(b))
	}
	if skewed(len(a), len(b), delta) {
		if stats != nil {
			stats.Galloping++
		}
		return countGalloping(a, b)
	}
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		n, i, j = step(a[i], b[j], n, i, j)
	}
	return n
}

// CountLess returns the number of pairs (x, y) ∈ a × b with x < y, in
// one branch-free two-pointer walk: every x still below b[j] pairs with
// all of b[j:]. The walk is recorded in stats (which may be nil) like a
// Count: it scans two candidate sets the same way.
//
//light:hotpath
func CountLess(a, b []graph.VertexID, stats *Stats) uint64 {
	if stats != nil {
		stats.Intersections++
		stats.Elements += uint64(len(a) + len(b))
	}
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lt := int((uint64(a[i]) - uint64(b[j])) >> 63)
		n += uint64(lt * (len(b) - j))
		i += lt
		j += 1 - lt
	}
	return n
}

func countGalloping(a, b []graph.VertexID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	j := 0
	for _, x := range a {
		j = gallop(b, j, x)
		if j == len(b) {
			break
		}
		if b[j] == x {
			n++
			j++
		}
	}
	return n
}

// Contains reports whether sorted set s contains x, by binary search.
//
//light:hotpath
func Contains(s []graph.VertexID, x graph.VertexID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// MultiWay intersects sets[0] ∩ sets[1] ∩ … into dst, smallest set first
// so the running time is proportional to the minimum cardinality (the min
// property, Definition II.6). scratch is a second buffer of the same
// capacity used for ping-ponging; dst and scratch must each have capacity
// at least min over sets of len. Returns the count written into dst.
//
// bitmaps is empty (nil means none) or runs in lockstep with sets:
// bitmaps[i], when non-nil, is the hub-bitmap form of sets[i]. Every
// bitmap-backed operand but the smallest set is applied as a probe
// filter over it (each pass costs O(|current|)), and the remaining plain
// lists are intersected with Pair; with no bitmap operand the call is
// exactly kernel k's list intersection.
//
// sets and bitmaps are reordered in place, in lockstep (ascending
// length). With one set, its contents are copied into dst; an undersized
// dst panics instead of silently truncating (see copySingle).
//
//light:hotpath
func MultiWay(dst, scratch []graph.VertexID, sets [][]graph.VertexID, bitmaps []*bitset.Bitmap, k Kind, delta int, stats *Stats) int {
	switch len(sets) {
	case 0:
		return 0
	case 1:
		return copySingle(dst, sets[0])
	}
	// Selection sort by length: set counts are tiny (≤ pattern degree).
	for i := range sets {
		min := i
		for j := i + 1; j < len(sets); j++ {
			if len(sets[j]) < len(sets[min]) {
				min = j
			}
		}
		sets[i], sets[min] = sets[min], sets[i]
		if len(bitmaps) > 0 {
			bitmaps[i], bitmaps[min] = bitmaps[min], bitmaps[i]
		}
	}
	// Probe phase: filter the smallest set through every bitmap-backed
	// operand. MergeBitmap tolerates dst aliasing its input, so the
	// running result stays in dst across passes. The base's own bitmap
	// (bitmaps[0]) is never used — the base is iterated, not probed.
	cur, n := sets[0], len(sets[0])
	inDst := false
	for i := 1; i < len(bitmaps); i++ {
		if bitmaps[i] == nil {
			continue
		}
		n = MergeBitmap(dst, cur, bitmaps[i], stats)
		if n == 0 {
			return 0
		}
		cur, inDst = dst[:n], true
	}
	// List phase: intersect the remaining plain lists, ping-ponging
	// between dst and scratch. The first pair always runs — the list
	// kernel counts it even when the smallest set is empty — and later
	// pairs only while the running result is non-empty.
	for i := 1; i < len(sets) && (n > 0 || i == 1); i++ {
		if i < len(bitmaps) && bitmaps[i] != nil {
			continue
		}
		out := dst
		if inDst {
			out = scratch
		}
		n = Pair(out, cur, sets[i], k, delta, stats)
		cur, inDst = out[:n], !inDst
	}
	if !inDst {
		copy(dst[:n], cur[:n])
	}
	return n
}

// copySingle is the one-operand case of the multiway kernels: the
// intersection of a single set is the set itself. The capacity contract
// (cap(dst) >= the minimum set length — here the only set) is enforced
// rather than assumed: a bare copy(dst[:cap(dst)], s) would silently
// truncate an undersized destination and return a wrong count, turning
// a caller bug into a wrong enumeration answer instead of a crash.
//
//light:hotpath
func copySingle(dst, s []graph.VertexID) int {
	if cap(dst) < len(s) {
		panic("intersect: destination capacity below single-operand length (multiway capacity contract violated)")
	}
	return copy(dst[:cap(dst)], s)
}
