package graph

import (
	"math"
	"sort"

	"light/internal/bitset"
)

// This file implements the degree-threshold hub index: every vertex
// with d(v) >= τ ("hub") carries a word-packed bitmap form of its
// neighbor list (internal/bitset), so the intersection kernels can
// replace an O(|small|·log|hub|) gallop against a hub with O(|small|)
// bitmap probes — the bitset strategy of Ferraz et al. adapted to the
// paper's CSR layout. The index is derived entirely from the adjacency
// structure and never participates in checkpoints.
//
// Concurrency: the index pointer is published atomically and every
// published index is immutable, so queries running on the same *Graph
// read a consistent snapshot with plain loads while BuildHubIndex
// rebuilds. Builds are serialized by hubMu and never expose a
// partially-built index (the historical nil-then-swap rebuild raced
// with the hot-path HubBitmap reader and could drop bitmap probes or
// crash mid-run). No query path builds: the index a graph is
// constructed with stays until someone calls BuildHubIndex.

// hubMinDegreeFloor is the smallest auto-tuned τ: below ~64 neighbors a
// galloping probe is already only a handful of cache lines, so a bitmap
// buys nothing.
const hubMinDegreeFloor = 64

// hubAvgDegreeFactor scales the average degree into the auto τ: a hub
// should be an outlier, several times the typical neighborhood size.
const hubAvgDegreeFactor = 8

// hubBudgetFloorBytes is the minimum bitmap-storage budget, so small
// graphs can always index their hubs.
const hubBudgetFloorBytes = 64 << 10

// hubTauDropped is the effective threshold of a deliberately dropped
// index: no degree can reach it, so the hot-path degree gate rejects
// every lookup with one comparison.
const hubTauDropped = math.MaxInt

// hubIndex maps hub vertices (sorted ascending) to their bitmaps. A
// vertex above the degree threshold may still lack a bitmap when the
// memory budget excluded its span; lookups simply return nil and the
// kernels fall back to list intersection. A hubIndex is immutable once
// published through Graph.hub.
type hubIndex struct {
	req   int              // the τ argument the build was requested with (0 = auto, < 0 = dropped)
	tau   int              // effective degree threshold (hubTauDropped when dropped)
	ids   []VertexID       // hub vertex ids, ascending
	maps  []*bitset.Bitmap // maps[i] is the bitmap of Neighbors(ids[i])
	bytes int64            // total bitmap storage
}

// autoHubThreshold derives τ from the degree distribution:
// hubAvgDegreeFactor × ⌈2M/N⌉, floored at hubMinDegreeFloor. 0 (no
// index) for an edgeless graph.
func (g *Graph) autoHubThreshold() int {
	n := g.NumVertices()
	if n == 0 || len(g.adj) == 0 {
		return 0
	}
	avg := (int64(len(g.adj)) + int64(n) - 1) / int64(n)
	tau := int(avg) * hubAvgDegreeFactor
	if tau < hubMinDegreeFloor {
		tau = hubMinDegreeFloor
	}
	return tau
}

// hubBudgetBytes bounds the index's bitmap storage: 4× the CSR
// adjacency array (so the index can never dominate the graph's own
// footprint), floored for small graphs.
func (g *Graph) hubBudgetBytes() int64 {
	b := int64(len(g.adj)) * 4 * 4
	if b < hubBudgetFloorBytes {
		b = hubBudgetFloorBytes
	}
	return b
}

// BuildHubIndex (re)builds the hub index with degree threshold tau:
// positive values set τ explicitly, 0 auto-tunes it from the degree
// distribution (the default applied by graph construction), and
// negative values drop the index entirely. Hubs are indexed in
// descending degree order until the memory budget is reached; hubs
// whose bitmap span exceeds the remaining budget are skipped (their
// intersections fall back to the list kernels).
//
// Safe to call while the graph is being enumerated concurrently: the
// new index is built aside and published atomically, so in-flight
// queries keep reading the old snapshot until the swap. Repeated calls
// with the τ the current index was built with are no-ops.
func (g *Graph) BuildHubIndex(tau int) {
	g.hubMu.Lock()
	defer g.hubMu.Unlock()
	if cur := g.hub.Load(); cur != nil && cur.req == tau {
		return
	}
	g.hubBuilds.Add(1)
	h := &hubIndex{req: tau, tau: tau}
	if tau == 0 {
		h.tau = g.autoHubThreshold()
	}
	if h.tau <= 0 {
		// Dropped by request (τ < 0), or nothing to index (edgeless
		// graph): publish an empty index whose degree gate rejects
		// everything, so the reader never needs a nil special case
		// beyond the never-built zero value.
		h.tau = hubTauDropped
		g.hub.Store(h)
		return
	}
	n := g.NumVertices()
	var cands []VertexID
	for v := 0; v < n; v++ {
		if g.Degree(VertexID(v)) >= h.tau {
			cands = append(cands, VertexID(v))
		}
	}
	if len(cands) == 0 {
		g.hub.Store(h)
		return
	}
	// Degree-descending build order: under a budget, the highest-degree
	// hubs are the ones whose gallops are most expensive to keep.
	sort.Slice(cands, func(i, j int) bool {
		di, dj := g.Degree(cands[i]), g.Degree(cands[j])
		if di != dj {
			return di > dj
		}
		return cands[i] < cands[j]
	})
	budget := g.hubBudgetBytes()
	for _, v := range cands {
		ns := g.Neighbors(v)
		est := bitset.EstimateBytes(ns[0], ns[len(ns)-1])
		if h.bytes+est > budget {
			continue // later hubs may have narrower spans that still fit
		}
		h.ids = append(h.ids, v)
		h.maps = append(h.maps, bitset.FromSorted(ns))
		h.bytes += est
	}
	sort.Sort(hubByID{h})
	g.hub.Store(h)
}

// HubBuilds returns how many hub-index builds this graph has performed
// (including the automatic build at construction) — an observability
// hook for tests asserting that a repeated τ, and queries, build nothing.
func (g *Graph) HubBuilds() uint64 { return g.hubBuilds.Load() }

// hubByID sorts the index's parallel id/bitmap slices by vertex id, the
// order HubBitmap's binary search requires.
type hubByID struct{ h *hubIndex }

func (s hubByID) Len() int           { return len(s.h.ids) }
func (s hubByID) Less(i, j int) bool { return s.h.ids[i] < s.h.ids[j] }
func (s hubByID) Swap(i, j int) {
	s.h.ids[i], s.h.ids[j] = s.h.ids[j], s.h.ids[i]
	s.h.maps[i], s.h.maps[j] = s.h.maps[j], s.h.maps[i]
}

// HubBitmap returns the bitmap form of v's neighbor list, or nil when v
// is not an indexed hub (no index, degree below τ, or excluded by the
// memory budget). The degree gate makes the common non-hub case one
// comparison; only genuine hubs pay the binary search. Safe under a
// concurrent rebuild: the atomic load pins one immutable snapshot.
//
//light:hotpath
func (g *Graph) HubBitmap(v VertexID) *bitset.Bitmap {
	h := g.hub.Load()
	if h == nil || len(h.ids) == 0 || g.Degree(v) < h.tau {
		return nil
	}
	lo, hi := 0, len(h.ids)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if h.ids[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.ids) && h.ids[lo] == v {
		return h.maps[lo]
	}
	return nil
}

// HubThreshold returns the degree threshold τ of the current hub
// index, or 0 when the graph carries none (never built, or dropped).
func (g *Graph) HubThreshold() int {
	h := g.hub.Load()
	if h == nil || h.tau == hubTauDropped {
		return 0
	}
	return h.tau
}

// NumHubs returns the number of vertices with an indexed bitmap.
func (g *Graph) NumHubs() int {
	h := g.hub.Load()
	if h == nil {
		return 0
	}
	return len(h.ids)
}

// HubIndexBytes returns the bitmap storage held by the hub index.
func (g *Graph) HubIndexBytes() int64 {
	h := g.hub.Load()
	if h == nil {
		return 0
	}
	return h.bytes
}
