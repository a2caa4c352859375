package intersect

import (
	"light/internal/bitset"
	"light/internal/graph"
)

// This file holds the hub-bitmap kernels. High-degree ("hub") adjacency
// lists carry a word-packed bitmap (built by the graph package's hub
// index), and intersecting any set against a hub becomes one O(1)
// membership probe per element of the smaller side — O(|small|) total
// instead of O(|small|·log|large|) galloping. The engine passes bitmaps
// to MultiWay under KindHybridBitmap; when no operand has a bitmap
// MultiWay runs the HybridBlock list kernel, so results are identical to
// the scalar kernels by construction (and verified by the equivalence
// property tests and the diffcheck oracle matrix).

// MergeBitmap intersects sorted set a against the hub bitmap into dst,
// which must have capacity at least len(a) and may alias a (probing
// writes position n <= the read position, preserving order). Each
// element of a costs one bitmap probe, recorded in stats.BitmapProbes.
//
//light:hotpath
//light:cap-contract
func MergeBitmap(dst, a []graph.VertexID, hub *bitset.Bitmap, stats *Stats) int {
	if stats != nil {
		stats.Intersections++
		stats.Elements += uint64(len(a))
		stats.BitmapProbes += uint64(len(a))
	}
	dst = dst[:cap(dst)]
	n := 0
	for _, x := range a {
		if hub.Contains(x) {
			dst[n] = x
			n++
		}
	}
	return n
}
