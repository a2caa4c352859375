// Package bfsjoin simulates the distributed BFS-join subgraph
// enumeration algorithms the paper compares against (Section VIII-C):
// SEED (clique-star join units) and CRYSTAL (core + compressed crystal
// buds). Both decompose the pattern into units, materialize every unit's
// matches, and join them — maintaining the exponential intermediate
// results that are the paper's central criticism of the BFS approach.
//
// The simulation makes the two costs of that approach explicit and
// measurable on one machine:
//
//   - Space: every live intermediate relation is charged to a byte
//     budget; exceeding Options.MaxBytes aborts with ErrOutOfSpace (the
//     paper's OOS outcome).
//   - Shuffle: every materialized intermediate tuple is charged
//     Options.ShufflePerTuple of simulated I/O time (MapReduce reads,
//     writes and shuffles each one); the harness adds it to wall time.
//
// Counting is performed without symmetry breaking and divided by |Aut(P)|
// at the end, which is exact and mirrors how join-based systems
// deduplicate.
package bfsjoin

import (
	"errors"
	"fmt"
	"time"

	"light/internal/graph"
	"light/internal/pattern"
)

// ErrOutOfSpace is returned when the intermediate results exceed the
// space budget (the paper's OOS failure mode).
var ErrOutOfSpace = errors.New("bfsjoin: out of space (intermediate results exceeded budget)")

// ErrTimeLimit is returned when Options.TimeLimit elapses (the OOT mark).
var ErrTimeLimit = errors.New("bfsjoin: time limit exceeded")

// Options configure a simulated distributed run.
type Options struct {
	// MaxBytes caps the total bytes of live intermediate relations;
	// 0 means unlimited.
	MaxBytes int64
	// TimeLimit aborts long runs; 0 means unlimited.
	TimeLimit time.Duration
	// ShufflePerTuple is the simulated materialization/shuffle cost per
	// intermediate tuple. The returned Result reports the aggregate; when
	// Sleep is true the run actually sleeps for it, so wall-clock
	// comparisons against LIGHT include the BFS approach's I/O cost.
	ShufflePerTuple time.Duration
	// Sleep controls whether the simulated shuffle time is actually slept.
	Sleep bool
}

// Result reports a simulated run.
type Result struct {
	Matches        uint64        // embeddings (injective homs / |Aut|)
	PeakBytes      int64         // high-water mark of live intermediates
	ShuffledTuples int64         // total intermediate tuples materialized
	ShuffleTime    time.Duration // simulated I/O cost of those tuples
	Units          []string      // human-readable decomposition
}

// Relation is a materialized set of partial matches over a set of
// pattern vertices. Tuples are aligned with Vertices.
type Relation struct {
	Vertices []pattern.Vertex
	Tuples   [][]graph.VertexID
}

// Bytes returns the in-memory size charged to the space budget.
func (r *Relation) Bytes() int64 {
	return int64(len(r.Tuples)) * int64(len(r.Vertices)) * 4
}

// String summarizes the relation's schema and cardinality.
func (r *Relation) String() string {
	return fmt.Sprintf("R%v[%d tuples]", r.Vertices, len(r.Tuples))
}

// Tracker enforces the space budget and accumulates shuffle/space
// accounting. Exported so the EH baseline (internal/baselines) can share
// the same OOS semantics.
type Tracker struct {
	opts     Options
	live     int64
	peak     int64
	shuffled int64
	deadline time.Time
}

// NewTracker starts accounting under opts.
func NewTracker(opts Options) *Tracker {
	t := &Tracker{opts: opts}
	if opts.TimeLimit > 0 {
		t.deadline = time.Now().Add(opts.TimeLimit)
	}
	return t
}

// Charge accounts for a newly materialized relation.
func (t *Tracker) Charge(r *Relation) error {
	return t.ChargeBytes(r.Bytes(), int64(len(r.Tuples)))
}

// ChargeBytes accounts for bytes of live intermediate state representing
// tuples shuffled rows.
func (t *Tracker) ChargeBytes(bytes, tuples int64) error {
	t.live += bytes
	if t.live > t.peak {
		t.peak = t.live
	}
	t.shuffled += tuples
	if t.opts.MaxBytes > 0 && t.live > t.opts.MaxBytes {
		return ErrOutOfSpace
	}
	return nil
}

// Release frees a relation from the live set (a MapReduce round's inputs
// are dropped once its output is written).
func (t *Tracker) Release(r *Relation) { t.live -= r.Bytes() }

// CheckTime returns ErrTimeLimit once the deadline passes.
func (t *Tracker) CheckTime() error {
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		return ErrTimeLimit
	}
	return nil
}

// ShuffleTime returns the simulated I/O cost accumulated so far.
func (t *Tracker) ShuffleTime() time.Duration {
	return time.Duration(t.shuffled) * t.opts.ShufflePerTuple
}

// OverBudget reports whether the live intermediates plus extra bytes
// would exceed the space budget.
func (t *Tracker) OverBudget(extra int64) bool {
	return t.opts.MaxBytes > 0 && t.live+extra > t.opts.MaxBytes
}

// Peak returns the intermediate-space high-water mark in bytes.
func (t *Tracker) Peak() int64 { return t.peak }

// Shuffled returns the total intermediate tuples materialized.
func (t *Tracker) Shuffled() int64 { return t.shuffled }

// HashJoin joins a and b on their shared pattern vertices, keeping only
// tuples whose combined data vertices are pairwise distinct. The result
// covers the union of the two vertex sets and is charged to the tracker.
func HashJoin(a, b *Relation, t *Tracker) (*Relation, error) {
	_, aIdx, bIdx := sharedVertices(a, b)
	// b's extra vertices (appended after a's).
	var bExtra []int
	outVerts := append([]pattern.Vertex(nil), a.Vertices...)
	for i, v := range b.Vertices {
		if !containsVertex(a.Vertices, v) {
			bExtra = append(bExtra, i)
			outVerts = append(outVerts, v)
		}
	}

	// Build side: hash a's tuples by their shared-vertex key.
	type key [pattern.MaxVertices]graph.VertexID
	build := make(map[key][]int, len(a.Tuples))
	for ti, tup := range a.Tuples {
		var k key
		for i, idx := range aIdx {
			k[i] = tup[idx]
		}
		build[k] = append(build[k], ti)
	}

	out := &Relation{Vertices: outVerts}
	for pi, ptup := range b.Tuples {
		if pi&4095 == 0 {
			if err := t.CheckTime(); err != nil {
				return nil, err
			}
		}
		var k key
		for i, idx := range bIdx {
			k[i] = ptup[idx]
		}
		for _, ti := range build[k] {
			atup := a.Tuples[ti]
			// Injectivity across the union.
			ok := true
			for _, bi := range bExtra {
				for _, av := range atup {
					if ptup[bi] == av {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			tup := make([]graph.VertexID, 0, len(outVerts))
			tup = append(tup, atup...)
			for _, bi := range bExtra {
				tup = append(tup, ptup[bi])
			}
			out.Tuples = append(out.Tuples, tup)
			// Charge incrementally so runaway joins hit the budget mid-way
			// instead of after allocating everything.
			if t.opts.MaxBytes > 0 && t.live+out.Bytes() > t.opts.MaxBytes {
				return nil, ErrOutOfSpace
			}
		}
	}
	if err := t.Charge(out); err != nil {
		return nil, err
	}
	return out, nil
}

// CountJoin is HashJoin for the final round: distributed systems stream
// the last join's output instead of storing it, so it only counts.
func CountJoin(a, b *Relation, t *Tracker) (uint64, error) {
	_, aIdx, bIdx := sharedVertices(a, b)
	var bExtra []int
	for i, v := range b.Vertices {
		if !containsVertex(a.Vertices, v) {
			bExtra = append(bExtra, i)
		}
	}
	type key [pattern.MaxVertices]graph.VertexID
	build := make(map[key][]int, len(a.Tuples))
	for ti, tup := range a.Tuples {
		var k key
		for i, idx := range aIdx {
			k[i] = tup[idx]
		}
		build[k] = append(build[k], ti)
	}
	var count uint64
	for pi, ptup := range b.Tuples {
		if pi&4095 == 0 {
			if err := t.CheckTime(); err != nil {
				return 0, err
			}
		}
		var k key
		for i, idx := range bIdx {
			k[i] = ptup[idx]
		}
		for _, ti := range build[k] {
			atup := a.Tuples[ti]
			ok := true
			for _, bi := range bExtra {
				for _, av := range atup {
					if ptup[bi] == av {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				count++
			}
		}
	}
	return count, nil
}

func sharedVertices(a, b *Relation) (shared []pattern.Vertex, aIdx, bIdx []int) {
	for i, v := range a.Vertices {
		for j, w := range b.Vertices {
			if v == w {
				shared = append(shared, v)
				aIdx = append(aIdx, i)
				bIdx = append(bIdx, j)
			}
		}
	}
	return shared, aIdx, bIdx
}

func containsVertex(vs []pattern.Vertex, v pattern.Vertex) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}
