// Package light is a parallel subgraph enumeration library for a single
// machine, reproducing the LIGHT algorithm of Sun, Che, Wang and Luo,
// "Efficient Parallel Subgraph Enumeration on a Single Machine"
// (ICDE 2019).
//
// Given an unlabeled pattern graph P and an unlabeled data graph G, the
// library finds every subgraph of G isomorphic to P. Internally it
// combines lazy materialization, minimum-set-cover candidate
// computation, a cost-based enumeration order optimizer, hybrid sorted
// set intersection, and parallel DFS over a pool of workers. The baseline
// algorithms the paper evaluates (SE, LM, MSC, and the distributed
// BFS-join systems) are available through the same API for comparison.
//
// Quick start:
//
//	g, err := light.LoadEdgeList("graph.txt")
//	p, err := light.PatternByName("triangle")
//	res, err := light.Count(g, p, light.Options{})
//	fmt.Println(res.Matches)
package light

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"light/internal/admission"
	"light/internal/delta"
	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/parallel"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// ErrTimeLimit is returned when Options.TimeLimit elapses mid-run: it is
// the cause of the run's timeout context, so the run stops exactly as a
// context deadline stops it.
var ErrTimeLimit = errors.New("light: time limit exceeded")

// VertexID identifies a data vertex (a 32-bit unsigned integer, as in
// the paper).
type VertexID = uint32

// Graph is an unlabeled undirected data graph in CSR form, relabeled
// into degree order at construction (the paper's ordered graph).
//
// A Graph is mutable through ApplyEdges, which publishes a new
// copy-on-write snapshot without touching the base CSR: queries that
// started earlier (or that pinned a Snapshot) keep seeing exactly the
// adjacency they started with. Accessors and queries without an explicit
// Options.Snapshot read the latest published snapshot. Compact folds
// accumulated deltas back into a fresh CSR.
type Graph struct {
	// head is the current published snapshot, swapped atomically by
	// ApplyEdges/Compact. Readers load it once and work with an
	// immutable state; they never block on writers.
	head atomic.Pointer[snapshotState]
	// mu serializes writers (ApplyEdges, Compact). Readers do not take
	// it.
	mu sync.Mutex
}

// snapshotState is one immutable published view of a Graph: a base CSR
// plus an optional copy-on-write edge overlay. All fields are read-only
// after publication.
type snapshotState struct {
	view delta.View
	gen  uint64
	// stats caches the planner's graph statistics per base CSR (one
	// triangle-counting pass, paid by the first query that plans);
	// shared by every query's planner (and across overlay generations
	// over the same base — the overlay shifts costs, never correctness,
	// so planning from base statistics stays sound).
	stats *baseStats
}

type baseStats struct {
	once  sync.Once
	stats estimate.GraphStats
}

// newGraph wraps a finalized CSR as a fresh generation-0 Graph.
func newGraph(gg *graph.Graph) *Graph {
	g := &Graph{}
	g.head.Store(&snapshotState{view: delta.NewView(gg, nil), stats: &baseStats{}})
	return g
}

// snap returns the latest published snapshot state.
func (g *Graph) snap() *snapshotState { return g.head.Load() }

// planStats returns the cached estimator statistics for the snapshot's
// base CSR, computing them once per base. Safe for concurrent queries.
func (s *snapshotState) planStats() estimate.GraphStats {
	s.stats.once.Do(func() { s.stats.stats = estimate.Collect(s.view.Base()) })
	return s.stats.stats
}

// NumVertices returns |V(G)| of the latest snapshot.
func (g *Graph) NumVertices() int { return g.snap().view.NumVertices() }

// NumEdges returns |E(G)| of the latest snapshot.
func (g *Graph) NumEdges() int64 { return g.snap().view.NumEdges() }

// MaxDegree returns an upper bound on the maximum vertex degree of the
// latest snapshot (exact when no edge deltas are pending).
func (g *Graph) MaxDegree() int { return g.snap().view.MaxDegree() }

// Degree returns the degree of v in the latest snapshot.
func (g *Graph) Degree(v VertexID) int { return g.snap().view.Degree(v) }

// Neighbors returns the sorted neighbor list of v in the latest
// snapshot. The returned slice must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID { return g.snap().view.Neighbors(v) }

// HasEdge reports whether the edge (u, v) exists in the latest
// snapshot; ids at or past NumVertices have none.
func (g *Graph) HasEdge(u, v VertexID) bool { return g.snap().view.HasEdge(u, v) }

// MemoryBytes returns the CSR memory footprint (plus the overlay's,
// when edge deltas are pending).
func (g *Graph) MemoryBytes() int64 { return g.snap().view.MemoryBytes() }

// Fingerprint returns a stable content hash of the latest snapshot's
// adjacency, identifying it for graph registries and result caches (see
// cmd/lightd): equal fingerprints mean identical adjacency. With pending
// edge deltas the hash covers base plus delta, so every ApplyEdges batch
// that changes the view changes the fingerprint. Computed once per
// snapshot on first use; safe for concurrent callers.
func (g *Graph) Fingerprint() uint64 { return g.snap().view.Fingerprint() }

// NumHubs returns how many vertices the current hub index holds
// bitmaps for (0 when the index was dropped as not worthwhile).
func (g *Graph) NumHubs() int { return g.snap().view.Base().NumHubs() }

// String summarizes the graph.
func (g *Graph) String() string {
	s := g.snap()
	if s.view.Overlay() != nil {
		return fmt.Sprintf("%s (+%d pending delta edges, gen %d)",
			s.view.Base().String(), s.view.DeltaEdges(), s.gen)
	}
	return s.view.Base().String()
}

// NewGraph builds a data graph from an edge list over n vertices
// (vertices beyond n grow the graph). Duplicate edges and self-loops are
// dropped. The result is relabeled into degree order, so vertex IDs in
// results refer to the relabeled graph.
func NewGraph(n int, edges [][2]VertexID) *Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return newGraph(graph.Reorder(b.Build()))
}

// LoadEdgeList reads a whitespace-separated "u v" edge-list file ('#'
// and '%' comment lines allowed) and relabels it into degree order.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		defer zr.Close()
		r = zr
	}
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return newGraph(graph.Reorder(g)), nil
}

// SaveCSR writes the graph to path in a compact binary CSR format that
// LoadCSR reads back without re-parsing or re-sorting — the right format
// for graphs that are queried repeatedly. Pending edge deltas are not
// representable in the CSR format; call Compact first.
func (g *Graph) SaveCSR(path string) error {
	s := g.snap()
	if s.view.Overlay() != nil {
		return fmt.Errorf("%w: SaveCSR with pending edge deltas; call Compact first", ErrUnsupportedOption)
	}
	return s.view.Base().SaveCSR(path)
}

// LoadCSR reads a graph written by SaveCSR. Graphs written by this
// package are already degree-ordered; foreign CSR files are reordered on
// load to restore the invariant the symmetry-breaking machinery needs.
func LoadCSR(path string) (*Graph, error) {
	gg, err := graph.LoadCSR(path)
	if err != nil {
		return nil, err
	}
	if !gg.IsOrdered() {
		gg = graph.Reorder(gg)
	}
	return newGraph(gg), nil
}

// Pattern is an immutable unlabeled connected pattern graph (n ≤ 16).
type Pattern struct {
	p *pattern.Pattern
}

// NewPattern builds a pattern over n vertices (0..n-1) from an edge
// list. The pattern must be connected.
func NewPattern(name string, n int, edges [][2]int) (*Pattern, error) {
	es := make([][2]pattern.Vertex, len(edges))
	for i, e := range edges {
		es[i] = [2]pattern.Vertex{e[0], e[1]}
	}
	p, err := pattern.New(name, n, es)
	if err != nil {
		return nil, err
	}
	if !p.IsConnected() {
		return nil, fmt.Errorf("light: pattern %s is disconnected", name)
	}
	return &Pattern{p: p}, nil
}

// PatternByName returns a named pattern: the paper's evaluation catalog
// "P1".."P7", or "triangle", "square", "cycleK", "pathK", "cliqueK",
// "starK" for small K (e.g. "clique4").
func PatternByName(name string) (*Pattern, error) {
	p, err := pattern.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: p}, nil
}

// CatalogNames lists the paper's evaluation patterns in order.
func CatalogNames() []string {
	return []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7"}
}

// Name returns the pattern's name.
func (p *Pattern) Name() string { return p.p.Name() }

// NumVertices returns |V(P)|.
func (p *Pattern) NumVertices() int { return p.p.NumVertices() }

// NumEdges returns |E(P)|.
func (p *Pattern) NumEdges() int { return p.p.NumEdges() }

// String renders the pattern.
func (p *Pattern) String() string { return p.p.String() }

// StructureKey spells the pattern's structure as given — vertex count
// and adjacency over the caller's vertex numbering, not its name.
// Patterns with equal keys are the same input to the optimizer, so on
// one snapshot they get the same plan, counts and deterministic
// counters under the same options (lightd keys its result cache on it).
func (p *Pattern) StructureKey() string { return p.p.StructureKey() }

// Algorithm selects the enumeration algorithm (the paper's Section
// VIII-B1 ablation ladder).
type Algorithm int

const (
	// LIGHT uses both lazy materialization and minimum-set-cover
	// candidate computation (the paper's contribution; the default).
	LIGHT Algorithm = iota
	// SE is the baseline DFS enumerator (Algorithm 1).
	SE
	// LM is SE plus lazy materialization only.
	LM
	// MSC is SE plus minimum-set-cover candidate computation only.
	MSC
)

// String returns the algorithm name used in the paper.
func (a Algorithm) String() string { return a.mode().Name() }

// ParseAlgorithm maps an algorithm name — one of the four String
// spellings, matched without regard to case — to its Algorithm. The
// empty name selects LIGHT. The CLI flag and lightd's wire option both
// go through it.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return LIGHT, nil
	}
	for a := LIGHT; a <= MSC; a++ {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("light: unknown algorithm %q (want LIGHT, SE, LM or MSC)", name)
}

func (a Algorithm) mode() plan.Mode {
	switch a {
	case SE:
		return plan.ModeSE
	case LM:
		return plan.ModeLM
	case MSC:
		return plan.ModeMSC
	}
	return plan.ModeLIGHT
}

// Intersection selects the sorted-set intersection kernel (Section
// VII-A). The Block variants stand in for the paper's AVX2 kernels; the
// Bitmap variants add hub-bitmap probing on top of them (an extension
// beyond the paper; see DESIGN.md §3).
type Intersection int

const (
	// HybridBitmap is HybridBlock with hub-bitmap probing, and the
	// default: an intersection whose operands include an indexed
	// high-degree hub filters the smallest operand through the hub's
	// bitmap (O(1) per element) instead of walking the hub's list.
	// Where bitmaps cannot help — the graph has no indexed hub, or an
	// intersection has no hub operand — it runs exactly HybridBlock's
	// list code. Pending edge deltas keep the bitmaps: a touched vertex
	// has one exactly when the base index holds one for it.
	HybridBitmap Intersection = iota
	// HybridBlock is Algorithm 4 with the block-skipping merge and no
	// bitmap probing — the stand-in for the paper's production
	// configuration (HybridAVX2), which every figure reproduction names.
	HybridBlock
	// Merge is the scalar two-pointer merge.
	Merge
	// MergeBlock is the block-skipping merge (MergeAVX2 stand-in).
	MergeBlock
	// Galloping always uses exponential search.
	Galloping
	// Hybrid is Algorithm 4 with the scalar merge. (Keep it last:
	// ParseIntersection walks the kernels up to it.)
	Hybrid
)

// String returns the kernel name used in the paper's figures.
func (i Intersection) String() string { return i.kind().String() }

func (i Intersection) kind() intersect.Kind {
	switch i {
	case HybridBlock:
		return intersect.KindHybridBlock
	case Merge:
		return intersect.KindMerge
	case MergeBlock:
		return intersect.KindMergeBlock
	case Galloping:
		return intersect.KindGalloping
	case Hybrid:
		return intersect.KindHybrid
	}
	return intersect.KindHybridBitmap
}

// ParseIntersection maps a kernel name — one of the six String
// spellings, matched without regard to case — to its Intersection. The
// empty name selects the default kernel (the zero value). It is the one
// place that knows the names and what "" means: the CLI flag, lightd's
// wire option and its result-cache key all go through it.
func ParseIntersection(name string) (Intersection, error) {
	if name == "" {
		return Intersection(0), nil
	}
	for k := Intersection(0); k <= Hybrid; k++ {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("light: unknown kernel %q", name)
}

// Options configure Count and Enumerate. The zero value runs LIGHT with
// the HybridBitmap kernel on one worker.
type Options struct {
	// Algorithm defaults to LIGHT.
	Algorithm Algorithm
	// Intersection defaults to HybridBitmap: hub-bitmap probing where the
	// graph's index has a bitmap for an operand, HybridBlock's list
	// kernel everywhere else. Name HybridBlock to reproduce the paper's
	// configuration exactly.
	Intersection Intersection
	// Workers is the most workers of the pool (Section VII-B) inside the
	// run at once: a pool of its own, or under a Governor its shared one,
	// where the cap is at most Slots. The workers take root chunks,
	// heaviest root first, from one cursor, and each walks its chunk to
	// the end. 0 means one worker, which walks the root candidates in
	// full chunks.
	Workers int
	// TimeLimit, when positive, bounds the run like a context deadline
	// whose error is ErrTimeLimit: the run stops at its next poll and
	// returns its partial result with Stopped=true. The clock starts
	// after plan search and the wait for admission.
	TimeLimit time.Duration
	// Filter, when non-nil, must approve every (pattern vertex, data
	// vertex) assignment: return false to skip mapping data vertex v
	// to pattern vertex u. It must be sound (never reject an
	// assignment on some match the caller wants) and cheap — it runs
	// in the innermost loop, possibly from many workers at once. A
	// filtered run walks every level to the leaves instead of counting
	// the trailing ones, so every leaf assignment is individually
	// checked; this is also the sequential reference semantics for
	// the lane groups of a CountBatch.
	Filter func(u int, v VertexID) bool
	// CheckpointPath, when non-empty, periodically persists the run's
	// committed state to this file (atomic temp-file+rename writes) so
	// an interrupted run can be resumed with ResumeFrom.
	CheckpointPath string
	// CheckpointInterval is the period between checkpoint writes
	// (default 30s). A final checkpoint is always written when the run
	// ends, completes, or is cancelled.
	CheckpointInterval time.Duration
	// ResumeFrom, when non-empty, loads the checkpoint at this path and
	// enumerates only the work it does not cover; the returned Result
	// includes the checkpoint's committed matches, so the total equals
	// an uninterrupted run's. The graph, pattern, and options must
	// match the checkpointing run. The graph's content and the plan are
	// verified by fingerprint; Filter is not, so passing the
	// checkpointing run's Filter is the caller's job.
	ResumeFrom string
	// Governor, when non-nil, admits this run through a shared resource
	// governor: the run waits (FIFO) for a run place, then runs on the
	// governor's shared worker pool with up to min(Workers, Slots) of
	// its workers inside its units at once, and is covered by the
	// governor's memory budget and stall watchdog. See NewGovernor.
	Governor *Governor
	// MemoryBudget caps this run's candidate-arena bytes, its workers'
	// buffers and marks together (0 = unlimited). It is a ceiling, not
	// a hint: the run keeps its workers and its plan, and the first
	// reservation past the budget stops it with ErrMemoryBudget. Nests
	// under the Governor's shared budget when both are set.
	MemoryBudget int64
	// AdmissionTimeout bounds the wait for a run place under a
	// Governor: past it the run fails fast with ErrOverloaded.
	// 0 waits until the context is cancelled. Ignored without a
	// Governor.
	AdmissionTimeout time.Duration
	// Snapshot, when non-nil, pins the run to that exact published view
	// of the graph instead of the latest one: concurrent ApplyEdges
	// calls never change what a pinned run enumerates. The snapshot
	// must come from the same Graph the run is given.
	Snapshot *Snapshot
}

// Result reports an enumeration.
type Result struct {
	// Matches is the number of subgraphs of G isomorphic to P.
	Matches uint64
	// Intersections is the number of pairwise set intersections
	// performed (the paper's Fig 5 metric).
	Intersections uint64
	// GallopingPercent is the share of intersections that took the
	// galloping path (Table III).
	GallopingPercent float64
	// Nodes is the number of search-tree nodes expanded.
	Nodes uint64
	// Duration is the wall-clock enumeration time.
	Duration time.Duration
	// Order is the enumeration order chosen by the optimizer.
	Order []int
	// CandidateMemoryBytes is the candidate-set buffer memory across all
	// workers (Table V).
	CandidateMemoryBytes int64
	// Stopped reports that the run ended before it finished its work:
	// the visitor returned false (with no error), or its context ended,
	// Options.TimeLimit elapsed or the stall watchdog cancelled it (with
	// that cause as the error). A time-limited run reports it exactly as
	// a context-deadline run does.
	Stopped bool
	// Report is the full structured metrics report of the run (the
	// engine counters above plus scheduler observability); always
	// non-nil on a run that started, nil only when setup failed.
	Report *RunReport
}

// preparePlan compiles the pattern under the options, planning from the
// snapshot's base-CSR statistics (pending deltas shift costs, never the
// match set, so base statistics keep the plan sound). The order search
// polls ctx once per candidate order and returns context.Cause(ctx)
// when it is done.
func preparePlan(ctx context.Context, st *snapshotState, p *Pattern, opts Options) (*plan.Plan, error) {
	return plan.ChooseContext(ctx, p.p, pattern.SymmetryBreaking(p.p), st.planStats(), opts.Algorithm.mode())
}

// resolveState picks the snapshot a run enumerates: the pinned one when
// Options.Snapshot is set (validated to belong to g), the latest
// published one otherwise.
func (g *Graph) resolveState(snap *Snapshot) (*snapshotState, error) {
	if snap == nil {
		return g.snap(), nil
	}
	if snap.owner != g {
		return nil, errors.New("light: Options.Snapshot belongs to a different Graph")
	}
	return snap.st, nil
}

// Count returns the number of subgraphs of g isomorphic to p.
func Count(g *Graph, p *Pattern, opts Options) (Result, error) {
	return run(context.Background(), g, p, opts, nil)
}

// CountContext is Count under a context: cancellation or a context
// deadline stops the run at its next poll and returns the partial
// count with Stopped=true and context.Cause(ctx) as the error (ctx.Err()
// unless ctx was cancelled with a cause); a ctx done before the run
// starts returns the same error.
func CountContext(ctx context.Context, g *Graph, p *Pattern, opts Options) (Result, error) {
	return run(ctx, g, p, opts, nil)
}

// Enumerate calls visit for every subgraph of g isomorphic to p;
// visit(m) receives the data vertex m[u] matched to each pattern vertex
// u. The slice is reused — copy it to retain. The order in which
// matches arrive is unspecified, at any worker count: the pool deals
// root chunks out heaviest first, and each worker walks its own.
// Returning false stops the enumeration, and visit is never called
// again once it has returned false (or panicked) — at any worker count,
// so a visitor that stops at its N-th match sees exactly N calls. visit
// is serialized by a mutex but is called from the pool's worker
// goroutines, not the caller's; with Workers > 1, Result.Matches of a
// stopped run may exceed the calls by the matches other workers had
// found but not yet delivered. A panic inside visit does not crash the
// process: the run stops cleanly and the panic is returned as an error
// (a *supervise.PanicError carrying the stack).
func Enumerate(g *Graph, p *Pattern, opts Options, visit func(mapping []VertexID) bool) (Result, error) {
	if visit == nil {
		return Result{}, errors.New("light: Enumerate requires a visitor; use Count")
	}
	return run(context.Background(), g, p, opts, visit)
}

// EnumerateContext is Enumerate under a context: cancellation or a
// context deadline stops the run at its next poll and returns the
// partial result with Stopped=true and context.Cause(ctx) as the error.
// The visitor contract is Enumerate's: matches arrive in an unspecified
// order, and visit is never called again after returning false.
func EnumerateContext(ctx context.Context, g *Graph, p *Pattern, opts Options, visit func(mapping []VertexID) bool) (Result, error) {
	if visit == nil {
		return Result{}, errors.New("light: EnumerateContext requires a visitor; use CountContext")
	}
	return run(ctx, g, p, opts, visit)
}

func run(ctx context.Context, g *Graph, p *Pattern, opts Options, visit engine.VisitFunc) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	st, err := g.resolveState(opts.Snapshot)
	if err != nil {
		return Result{}, err
	}
	if st.view.Overlay() != nil && (opts.CheckpointPath != "" || opts.ResumeFrom != "") {
		return Result{}, fmt.Errorf("%w: checkpoint/resume require a compacted snapshot; call Compact before checkpointing", ErrUnsupportedOption)
	}
	pl, err := preparePlan(ctx, st, p, opts)
	if err != nil {
		return Result{}, err
	}
	return execute(ctx, st, pl, opts, visit)
}

// execute is the back half every rooted query shares at any worker
// count: the governance prelude, one run of the pool over the snapshot,
// and the report.
func execute(ctx context.Context, st *snapshotState, pl *plan.Plan, opts Options, visit engine.VisitFunc) (Result, error) {
	popts := parallel.Options{Engine: engine.Options{
		Kernel:  opts.Intersection.kind(),
		Filter:  opts.Filter,
		Overlay: st.view.Overlay(),
	}}
	start := time.Now()
	if opts.CheckpointPath != "" {
		popts.Checkpoint = &parallel.CheckpointOptions{
			Path:     opts.CheckpointPath,
			Interval: opts.CheckpointInterval,
		}
	}
	if opts.ResumeFrom != "" {
		ck, err := supervise.LoadCheckpoint(opts.ResumeFrom)
		if err != nil {
			return Result{}, fmt.Errorf("light: loading checkpoint: %w", err)
		}
		popts.Resume = ck
	}

	r, err := opts.governed(ctx, popts, func(ctx context.Context, popts parallel.Options) (parallel.Result, error) {
		return parallel.RunContext(ctx, st.view.Base(), pl, popts, visit)
	})
	if r == nil {
		return Result{}, err
	}
	res := Result{
		Matches:              r.Matches,
		Intersections:        r.Stats.Intersections,
		GallopingPercent:     r.Stats.GallopingPercent(),
		Nodes:                r.Nodes,
		Duration:             time.Since(start),
		Order:                make([]int, len(pl.Pi)),
		CandidateMemoryBytes: r.CandidateMemBytes,
		Stopped:              r.Stopped,
	}
	copy(res.Order, pl.Pi)
	res.Report = newRunReport(opts, st, res.Duration, r, nil)
	return res, mapErr(err)
}

func mapErr(err error) error {
	switch {
	case errors.Is(err, engine.ErrMemoryBudget):
		return ErrMemoryBudget
	case errors.Is(err, admission.ErrOverloaded):
		return ErrOverloaded
	case errors.Is(err, admission.ErrStalled):
		return ErrStalled
	}
	return err
}

// PlanKey returns the canonical key of the plan the optimizer would
// run for (g, p, opts): pattern adjacency, enumeration order, execution
// order, COMP operands, and symmetry constraints — everything that
// determines the search tree walked, and nothing cosmetic. Two queries
// with equal plan keys on the same graph walk identical trees and
// produce identical deterministic counters. It costs a full plan
// search, so lightd no longer names queries with it: on one snapshot
// the plan is already determined by Pattern.StructureKey and the
// algorithm. It stays as the reference that equivalence is tested
// against, and as what the benchmark's plan probe times.
func PlanKey(g *Graph, p *Pattern, opts Options) (string, error) {
	st, err := g.resolveState(opts.Snapshot)
	if err != nil {
		return "", err
	}
	pl, err := preparePlan(context.Background(), st, p, opts)
	if err != nil {
		return "", err
	}
	return pl.CompatKey(), nil
}

// Explain returns a human-readable rendering of the plan the optimizer
// would run for (g, p, opts): enumeration order, execution order with
// COMP operands and MAT symmetry checks, anchor/free structure, and the
// cost-model breakdown — the library's EXPLAIN.
func Explain(g *Graph, p *Pattern, opts Options) (string, error) {
	st, err := g.resolveState(opts.Snapshot)
	if err != nil {
		return "", err
	}
	pl, err := preparePlan(context.Background(), st, p, opts)
	if err != nil {
		return "", err
	}
	return pl.Explain(st.planStats()), nil
}
