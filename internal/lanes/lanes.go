// Package lanes is the bit-parallel batch executor: it evaluates up to
// 64 queries that share one data graph in SIMD-within-a-register lanes,
// one query per bit of a uint64 word (the Cluster-BFS packing applied
// to subgraph enumeration). Queries whose compiled plans are
// structurally identical — same pattern adjacency, enumeration order,
// execution order, COMP operands, and symmetry constraints, keyed by
// plan.CompatKey — form a lane group; the engine then walks that
// group's search tree once, computing every candidate set a single
// time, while a per-path lane mask tracks which queries are still
// live. Per-query differences (root sets, minimum-degree thresholds,
// arbitrary assignment filters) are applied by masking lanes off, not
// by re-walking, so the shared traversal's cost is paid once for the
// whole group. Run makes each group one parallel.Job, and the jobs of all
// of a batch's groups share one pool run.
//
// Attribution stays exact: a lane is live at a node iff a sequential
// run of its query would expand that node, and every COMP depends only
// on the assignments above it, so charging shared work to each live
// lane reproduces every query's solo counters bit-for-bit (the engine
// asserts the same invariant; internal/diffcheck and the catalog rows of
// the root package's TestCounterBaseline both gate on it).
package lanes

import (
	"fmt"
	"math/bits"
	"sort"

	"light/internal/engine"
	"light/internal/graph"
)

// Spec describes one lane's query-specific narrowing of the group's
// shared plan. The zero value is the unrestricted query: all roots, no
// degree threshold, no filter.
type Spec struct {
	// Roots, when non-nil, restricts the lane to matches whose root
	// pattern vertex maps into this set. nil means every root.
	Roots []graph.VertexID
	// MinDegree, when positive, drops assignments of data vertices
	// with degree below it (applied at every pattern vertex, exactly
	// like a sequential run with a degree filter).
	MinDegree int
	// Filter, when non-nil, must approve every (pattern vertex, data
	// vertex) assignment for this lane. It runs under the innermost
	// mask probe, but only for candidates that survived the bit-
	// parallel degree ladder, and only for lanes that carry a filter.
	Filter func(u int, v graph.VertexID) bool
}

// Set implements engine.LaneProber for one lane group: per-query state
// packed into uint64 masks, probed once per candidate assignment.
// Immutable after NewSet; safe for concurrent workers.
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
	// alive (degree-wise) in degMasks[i] for the largest thresholds[i]
	// <= d — one binary search over at most 64 entries, no per-lane
	// work.
	thresholds []int
	degMasks   []uint64

	// filterMask marks lanes carrying an arbitrary filter; filters is
	// indexed per lane (nil entries for unfiltered lanes).
	filterMask uint64
	filters    []func(u int, v graph.VertexID) bool
}

// NewSet packs specs (one per lane, at most 64) into a prober over a
// graph with numVertices data vertices.
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
		t := sp.MinDegree
		if t < 0 {
			t = 0
		}
		distinct[t] = true
	}
	for t := range distinct {
		s.thresholds = append(s.thresholds, t)
	}
	sort.Ints(s.thresholds)
	s.degMasks = make([]uint64, len(s.thresholds))
	for i, t := range s.thresholds {
		var m uint64
		for lane, sp := range specs {
			lt := sp.MinDegree
			if lt < 0 {
				lt = 0
			}
			if lt <= t {
				m |= 1 << uint(lane)
			}
		}
		s.degMasks[i] = m
	}

	s.filters = make([]func(u int, v graph.VertexID) bool, len(specs))
	for lane, sp := range specs {
		if sp.Filter != nil {
			s.filters[lane] = sp.Filter
			s.filterMask |= 1 << uint(lane)
		}
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

// MaskFor returns the lanes accepting the assignment of data vertex v
// (degree deg) to pattern vertex u: the degree-ladder mask intersected
// with each carried filter's verdict. One ladder lookup covers every
// lane's threshold at once; only filtered lanes pay a per-lane call.
//
//light:hotpath
func (s *Set) MaskFor(u int, v graph.VertexID, deg int) uint64 {
	m := s.degMask(deg)
	fm := m & s.filterMask
	for ; fm != 0; fm &= fm - 1 {
		lane := bits.TrailingZeros64(fm)
		if !s.filters[lane](u, v) {
			m &^= 1 << uint(lane)
		}
	}
	return m
}

// degMask returns the union of lanes whose MinDegree is at most deg:
// the cumulative mask at the largest threshold not exceeding deg, or 0
// when even the smallest threshold is too high.
//
//light:hotpath
func (s *Set) degMask(deg int) uint64 {
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

var _ engine.LaneProber = (*Set)(nil)
