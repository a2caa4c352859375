// Package lanes packs up to 64 narrowed queries that share one compiled
// plan into bit-parallel lanes, one query per bit of a uint64 word (the
// Cluster-BFS packing applied to subgraph enumeration). A Set is data:
// the per-lane root sets, transposed into one mask per data vertex, and
// the per-lane MinDegree thresholds, folded into one ascending ladder of
// cumulative masks. The engine (engine.Options.Lanes) walks the plan's
// search tree once for the whole group, carrying the mask of lanes
// still live on the current path, and asks the Set which lanes accept
// each root and each assignment.
//
// Attribution stays exact: a lane is live at a node iff a sequential
// run of its query would expand that node, and every COMP depends only
// on the assignments above it, so charging shared work to each live
// lane reproduces every query's solo counters bit-for-bit (the engine's
// lane tests, internal/diffcheck and the batch rows of the root
// package's TestCounterBaseline all gate on it). Which queries share a
// Set is the root package's CountBatch's decision.
package lanes

import (
	"fmt"
	"sort"

	"light/internal/graph"
)

// Spec describes one lane's query-specific narrowing of the group's
// shared plan. The zero value is the unrestricted query: all roots, no
// degree threshold.
type Spec struct {
	// Roots, when non-nil, restricts the lane to matches whose root
	// pattern vertex maps into this set. nil means every root.
	Roots []graph.VertexID
	// MinDegree, when positive, drops assignments of data vertices
	// with degree below it (applied at every pattern vertex, exactly
	// like a sequential run with a degree filter).
	MinDegree int
}

// Set is one lane group's per-query state packed into uint64 masks,
// probed once per candidate assignment. Immutable after NewSet; safe
// for concurrent workers.
type Set struct {
	n   int
	all uint64

	// rootMasks[v] is the mask of lanes whose root set contains data
	// vertex v — the transposed bit-parallel packing of all per-lane
	// root sets. nil when every lane takes all roots.
	rootMasks []uint64

	// The degree ladder: thresholds holds the distinct MinDegree
	// values ascending, and degMasks[i] is the mask of lanes whose
	// threshold is at most thresholds[i]. A candidate of degree d is
	// alive in degMasks[i] for the largest thresholds[i] <= d — one
	// binary search over at most 64 entries, no per-lane work.
	thresholds []int
	degMasks   []uint64
}

// NewSet packs specs (one per lane, at most 64) over a graph with
// numVertices data vertices.
func NewSet(numVertices int, specs []Spec) (*Set, error) {
	if len(specs) == 0 || len(specs) > 64 {
		return nil, fmt.Errorf("lanes: %d lanes, must be 1..64", len(specs))
	}
	s := &Set{n: len(specs)}
	if s.n == 64 {
		s.all = ^uint64(0)
	} else {
		s.all = 1<<uint(s.n) - 1
	}

	// Root sets, transposed: rootMasks[v] collects the lanes listing v.
	anyRestricted := false
	for _, sp := range specs {
		if sp.Roots != nil {
			anyRestricted = true
			break
		}
	}
	if anyRestricted {
		s.rootMasks = make([]uint64, numVertices)
		for lane, sp := range specs {
			bit := uint64(1) << uint(lane)
			if sp.Roots == nil {
				for v := range s.rootMasks {
					s.rootMasks[v] |= bit
				}
				continue
			}
			for _, v := range sp.Roots {
				if int(v) >= numVertices {
					return nil, fmt.Errorf("lanes: lane %d root %d out of range (|V|=%d)", lane, v, numVertices)
				}
				s.rootMasks[v] |= bit
			}
		}
	}

	// Degree ladder: distinct thresholds ascending, cumulative masks.
	distinct := map[int]bool{}
	for _, sp := range specs {
		distinct[max(sp.MinDegree, 0)] = true
	}
	for t := range distinct {
		s.thresholds = append(s.thresholds, t)
	}
	sort.Ints(s.thresholds)
	s.degMasks = make([]uint64, len(s.thresholds))
	for i, t := range s.thresholds {
		var m uint64
		for lane, sp := range specs {
			if max(sp.MinDegree, 0) <= t {
				m |= 1 << uint(lane)
			}
		}
		s.degMasks[i] = m
	}
	return s, nil
}

// NumLanes returns the number of packed queries.
func (s *Set) NumLanes() int { return s.n }

// All returns the mask with one bit per lane.
func (s *Set) All() uint64 { return s.all }

// RootMask returns the lanes whose root set contains v.
//
//light:hotpath
func (s *Set) RootMask(v graph.VertexID) uint64 {
	if s.rootMasks == nil {
		return s.all
	}
	return s.rootMasks[v]
}

// MaskFor returns the lanes accepting a data vertex of degree deg: the
// cumulative ladder mask at the largest threshold not exceeding deg, or
// 0 when even the smallest threshold is too high. One lookup covers
// every lane's threshold at once.
//
//light:hotpath
func (s *Set) MaskFor(deg int) uint64 {
	// Binary search over at most 64 sorted thresholds.
	lo, hi := 0, len(s.thresholds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.thresholds[mid] <= deg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return s.degMasks[lo-1]
}
