// Package engine executes compiled enumeration plans against a data
// graph. One Enumerator interprets the plan's execution order σ
// recursively (the paper's Algorithms 1 and 2 unified): COMP operations
// compute candidate sets with the plan's K1/K2 operands (Equation 6) and
// MAT operations extend the partial result, enforcing injectivity and the
// symmetry-breaking partial order.
//
// An Enumerator is single-threaded and reusable; the parallel package
// runs one per worker seat and deals root chunks and anchors to them.
package engine

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"light/internal/arena"
	"light/internal/bitset"
	"light/internal/delta"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/lanes"
	"light/internal/plan"
)

// ErrTimeLimit is returned when Options.TimeLimit elapses mid-run (the
// paper's OOT outcome).
var ErrTimeLimit = errors.New("engine: time limit exceeded")

// ErrMemoryBudget is returned when a budgeted arena denies a candidate
// buffer or a mark's words: the run's memory budget is a ceiling, and
// the run stops at it. The unwind path is the same as ErrTimeLimit, so
// partial results and checkpoints remain valid.
var ErrMemoryBudget = errors.New("engine: memory budget exceeded")

// errLaneVisit rejects enumeration-mode runs in lane mode: a visitor
// would need the per-match lane mask to tell which queries a mapping
// belongs to, and no caller needs that; lane batches are count-only.
var errLaneVisit = errors.New("engine: lane mode is count-only; visitors are not supported")

// VisitFunc receives each match: mapping[u] is the data vertex assigned
// to pattern vertex u. The slice is reused between calls; copy it to
// retain. Return false to stop the enumeration early.
type VisitFunc func(mapping []graph.VertexID) bool

// LaneCounts are one lane's individually-attributed counters: exactly
// the counters a sequential run of that lane's query (same plan, its
// root set and degree threshold) would produce. The attribution rule
// makes this exact, not approximate: a lane is live at a search-tree
// node iff the sequential run of its query would expand that node, and
// every COMP's operands depend only on the assignments above it — never
// on which other lanes are live — so charging each shared operation to
// every live lane reproduces each query's solo counters bit-for-bit.
type LaneCounts struct {
	Matches uint64
	Nodes   uint64
	Comps   uint64
	Stats   intersect.Stats
}

// Add accumulates other into lc.
func (lc *LaneCounts) Add(other LaneCounts) {
	lc.Matches += other.Matches
	lc.Nodes += other.Nodes
	lc.Comps += other.Comps
	lc.Stats.Add(other.Stats)
}

// Options configure an Enumerator.
type Options struct {
	// Kernel selects the set intersection implementation (default
	// KindMerge, the paper's serial baseline configuration). A bitmap
	// kind probes only where the graph's hub index has a bitmap for an
	// operand; on a graph whose index holds no hub, New replaces it with
	// its list fallback.
	Kernel intersect.Kind
	// TimeLimit aborts the run with ErrTimeLimit when positive. The
	// clock starts at each Run/RunRoots/RunAnchor call.
	TimeLimit time.Duration
	// Deadline, when set, is an absolute cutoff shared across calls; it
	// takes precedence over TimeLimit. The parallel scheduler pins one
	// deadline for all workers and chunks.
	Deadline time.Time
	// DegreeFilter skips candidates whose data degree is below the
	// pattern vertex's degree — the only filter unlabeled graphs admit
	// from the labeled-matching toolbox (used by the CFL baseline).
	DegreeFilter bool
	// Filter, when non-nil, must approve every (pattern vertex, data
	// vertex) assignment; assignments it rejects are skipped. It must be
	// sound (never reject a vertex that completes to a valid match the
	// caller wants) and fast — it runs in the innermost loop. The
	// labeled-matching layer uses it for label and neighborhood-label-
	// frequency filtering. Filter disables the count-only tail (see
	// matLoop): every leaf assignment is then individually checked.
	Filter func(u int, v graph.VertexID) bool
	// Arena, when non-nil, backs the enumerator's candidate buffers. The
	// parallel scheduler passes one arena per worker so every enumerator
	// a worker builds reuses the same slabs; when nil, New creates a
	// private arena. The arena must not be shared between enumerators
	// that run concurrently.
	Arena *arena.Arena
	// Overlay, when non-nil, is the copy-on-write edge-delta view the
	// enumerator reads adjacency through instead of the raw CSR: touched
	// vertices resolve to the overlay's merged lists and rebuilt hub
	// bitmaps, untouched vertices read the base graph directly. The
	// overlay's base must be the graph passed to New. When nil — the common case —
	// every adjacency read takes the direct CSR path at the cost of one
	// nil check.
	Overlay *delta.Overlay
	// Lanes, when non-nil, switches the enumerator into bit-parallel
	// lane mode: it walks the plan's search tree once for the whole
	// group, masking lanes off as their root sets and degree thresholds
	// reject assignments, and attributes every node, match, COMP, and
	// intersection to each live lane in Result.Lanes. Lane mode is
	// count-only (no visitors) and disables the count-only tail — the
	// leaf loop must run to apply leaf-level lane masks.
	Lanes *lanes.Set
}

// Result summarizes a run.
type Result struct {
	Matches uint64          // matches found (respecting the partial order)
	Stats   intersect.Stats // set intersection counters
	Nodes   uint64          // search-tree nodes expanded (MAT extensions)
	Comps   uint64          // COMP operations executed (incl. aliases)
	Stopped bool            // true when the visitor stopped the run early
	// Lanes holds per-lane attributed counters in lane mode (one entry
	// per lane of Options.Lanes); nil otherwise. The top-level counters
	// above then describe the shared batch traversal — the work
	// actually performed — while Lanes splits it per query.
	Lanes []LaneCounts
}

// Add accumulates other into r (for combining per-worker results).
func (r *Result) Add(other Result) {
	r.Matches += other.Matches
	r.Stats.Add(other.Stats)
	r.Nodes += other.Nodes
	r.Comps += other.Comps
	r.Stopped = r.Stopped || other.Stopped
	if len(other.Lanes) > len(r.Lanes) {
		grown := make([]LaneCounts, len(other.Lanes)) //lightvet:ignore hotpath -- grows at most once per worker, when the first lane result lands
		copy(grown, r.Lanes)
		r.Lanes = grown
	}
	for i := range other.Lanes {
		r.Lanes[i].Add(other.Lanes[i])
	}
}

// Enumerator executes one plan on one graph.
type Enumerator struct {
	view delta.View // the graph plus opts.Overlay, resolved once in New
	pl   *plan.Plan
	opts Options

	// Stop, when non-nil, is polled at the deadline cadence; setting it
	// aborts the run with Stopped=true and no error. The parallel
	// scheduler uses it to propagate early termination across workers.
	Stop *atomic.Bool

	// Progress, when non-nil, is incremented at the deadline-poll
	// cadence (every 8192 σ steps) — a cheap per-worker heartbeat the
	// stall watchdog samples to tell a slow-but-advancing worker from a
	// wedged one.
	Progress *atomic.Uint64

	assigned []graph.VertexID // per pattern vertex, valid when materialized
	allRoots []graph.VertexID // lazily built full root list for Run

	// Candidate buffers are carved from ar lazily, one cap-dmax slice
	// per pattern vertex on first use after begin. A run that prunes
	// early never pays for the deeper buffers, and the arena makes the
	// whole set one slab reset instead of n live allocations.
	cand    [][]graph.VertexID
	bufs    [][]graph.VertexID
	scratch []graph.VertexID
	setsTmp [][]graph.VertexID
	bmsTmp  []*bitset.Bitmap
	ar      *arena.Arena
	dmax    int
	// useBitmaps is the intersection strategy New resolved: compute
	// looks K1 operands up in the graph's hub index only when the kernel
	// probes bitmaps and the index published when New ran holds at least
	// one hub. Otherwise every COMP takes the list path outright.
	useBitmaps bool
	// marks[w] is pattern vertex w's mark (see plan.Plan.Marks): its
	// words, markWords of them for one bit per view id, are ar.Words,
	// taken on first use and kept, like the rest of a mark, across runs.
	marks     []mark
	markWords int

	// Lane mode state: lanes aliases opts.Lanes (nil check per
	// candidate), alive is the mask of lanes live on the current search
	// path, and laneBuf is the persistent per-lane counter array begin
	// aliases into result.Lanes (allocated once in New, so per-chunk
	// resets stay allocation-free).
	lanes   *lanes.Set
	alive   uint64
	laneBuf []LaneCounts

	// tail is the first σ index a counting run counts instead of
	// looping (see matLoop): the last MAT, or the one before it when σ
	// ends in two MATs. counting is set per run: no visitor, no
	// Options.Filter and no lanes.
	tail     int
	counting bool

	visit    VisitFunc
	result   Result
	deadline time.Time
	// polls counts checkDeadline calls; the poll cadence is keyed to it
	// rather than to Result.Nodes, which the counted tail advances in
	// batches that can step over any fixed residue forever.
	polls uint64
	err   error
}

// mark is the state behind one marked operand w: bm is N(v) for v =
// φ(w) at its last use, either v's hub bitmap or own. own spans words
// taken on first use and then holds N(ownV) while built is set. The
// enumerator's view never changes, so a mark stays valid from one run to
// the next: begin leaves it alone, and a new run's first use costs no
// more than a change of φ(w) does.
type mark struct {
	v     graph.VertexID
	bm    *bitset.Bitmap
	own   bitset.Bitmap
	ownV  graph.VertexID
	built bool
}

// New prepares an Enumerator for repeated runs of pl over g. Its Hybrid
// kernels run at the paper's δ, intersect.DefaultDelta.
func New(g *graph.Graph, pl *plan.Plan, opts Options) *Enumerator {
	if opts.Lanes != nil && opts.Filter != nil {
		panic("engine: Options.Filter and Options.Lanes are exclusive")
	}
	n := pl.Pattern.NumVertices()
	ar := opts.Arena
	if ar == nil {
		ar = arena.New()
	}
	view := delta.NewView(g, opts.Overlay) // panics on a foreign base
	var laneBuf []LaneCounts
	if opts.Lanes != nil {
		laneBuf = make([]LaneCounts, opts.Lanes.NumLanes())
	}
	if g.NumHubs() == 0 {
		// Nothing to probe (no vertex reaches the index's threshold, or
		// the index was dropped): a probing kernel is its list kernel.
		opts.Kernel = opts.Kernel.ListFallback()
	}
	tail := len(pl.Sigma) - 1
	if tail >= 2 && pl.Sigma[tail-1].Mode == plan.Mat {
		tail--
	}
	return &Enumerator{
		view:       view,
		pl:         pl,
		opts:       opts,
		assigned:   make([]graph.VertexID, n),
		cand:       make([][]graph.VertexID, n),
		bufs:       make([][]graph.VertexID, n),
		setsTmp:    make([][]graph.VertexID, 0, n),
		bmsTmp:     make([]*bitset.Bitmap, 0, n),
		marks:      make([]mark, n),
		markWords:  view.NumVertices()/64 + 1,
		ar:         ar,
		dmax:       view.MaxDegree(),
		useBitmaps: opts.Kernel.UsesBitmaps(),
		tail:       tail,
		lanes:      opts.Lanes,
		laneBuf:    laneBuf,
	}
}

// Plan returns the plan the enumerator executes.
func (e *Enumerator) Plan() *plan.Plan { return e.pl }

// CandidateMemoryBytes reports the memory held by candidate-set buffers
// (the paper's Table V metric): the arena slabs the lazy per-vertex
// buffers and the scratch buffer are carved from, and the marks' words.
// Enumerators sharing an arena (one worker's sequence of chunks) report
// the same slabs and every one's marks.
func (e *Enumerator) CandidateMemoryBytes() int64 {
	return e.ar.Bytes()
}

// Run enumerates over every root candidate (C(π[1]) = V(G)) and returns
// the combined result. visit may be nil for count-only runs.
func (e *Enumerator) Run(visit VisitFunc) (Result, error) {
	if e.allRoots == nil {
		n := e.view.NumVertices()
		e.allRoots = make([]graph.VertexID, n)
		for i := range e.allRoots {
			e.allRoots[i] = graph.VertexID(i)
		}
	}
	return e.RunRoots(e.allRoots, visit)
}

// RunRoots enumerates only the given root candidates (used by the
// parallel pool to partition C(π[1])), in the order given.
//
//light:hotpath
func (e *Enumerator) RunRoots(roots []graph.VertexID, visit VisitFunc) (Result, error) {
	e.begin(visit)
	if e.lanes != nil && visit != nil {
		e.err = errLaneVisit
		return e.result, e.err
	}
	rootVertex := e.pl.Pi[0]
	for _, v := range roots {
		// Poll before the filter: a filter that rejects every root
		// would otherwise spin through the whole candidate set without
		// ever observing cancellation (the cancelpoll invariant).
		if !e.checkDeadline() {
			break
		}
		if e.opts.Filter != nil && !e.opts.Filter(rootVertex, v) {
			continue
		}
		if e.lanes != nil {
			m := e.lanes.RootMask(v) & e.lanes.MaskFor(e.view.Degree(v))
			if m == 0 {
				continue
			}
			e.alive = m
			e.laneNodes(m)
		}
		e.assigned[rootVertex] = v
		e.result.Nodes++
		if !e.step(1) {
			break
		}
	}
	return e.result, e.err
}

// Anchor is a starting point of an anchored plan: the data edges
// (Root, w) for w in Partners, which must be an ascending list of
// Root's neighbors in the enumerated view.
type Anchor struct {
	Root     graph.VertexID
	Partners []graph.VertexID
}

// RunAnchor enumerates the embeddings that map the plan's first pattern
// edge (π[0], π[1]) onto one of the anchor's data edges, π[0] on Root:
// the search starts at an edge instead of a vertex, so nothing that
// avoids those edges is ever extended. The plan must come from
// plan.CompileAnchored (σ = MAT π[0], COMP π[1], MAT π[1], …): π[1]'s
// MAT loop runs over Partners instead of the whole C(π[1]) = N(Root),
// cut to the window COMP π[1] pushes (plan.Plan.Push) and under the
// same bounds, injectivity and filter rules as any other MAT loop.
// Like RunRoots it applies Options.Filter to the root assignment. Lane
// mode is not supported.
//
//light:hotpath
func (e *Enumerator) RunAnchor(an Anchor, visit VisitFunc) (Result, error) {
	e.begin(visit)
	a := e.pl.Pi[0]
	if e.opts.Filter != nil && !e.opts.Filter(a, an.Root) {
		return e.result, e.err
	}
	e.assigned[a] = an.Root
	e.result.Nodes++
	// COMP π[1] aliases N(Root): no intersection, no copy.
	if b := e.pl.Pi[1]; e.compute(b) {
		lo, hi, _ := e.bounds(e.pl.Push[b], -1)
		e.matLoop(2, window(an.Partners, lo, hi))
	}
	return e.result, e.err
}

// laneNodes charges one expanded node to every live lane.
//
//light:hotpath
func (e *Enumerator) laneNodes(m uint64) {
	for ; m != 0; m &= m - 1 {
		e.laneBuf[bits.TrailingZeros64(m)].Nodes++
	}
}

// begin resets per-run state. Releasing the arena invalidates every
// buffer carved last run, so the buffer and candidate tables are
// cleared with it; buf/scratchBuf re-carve on first use. Marks live
// outside the rewound slabs and are kept (see mark).
//
//light:hotpath
func (e *Enumerator) begin(visit VisitFunc) {
	e.visit = visit
	e.counting = visit == nil && e.opts.Filter == nil && e.lanes == nil
	e.result = Result{}
	e.polls = 0
	e.err = nil
	if e.lanes != nil {
		for i := range e.laneBuf {
			e.laneBuf[i] = LaneCounts{}
		}
		e.result.Lanes = e.laneBuf
		e.alive = e.lanes.All()
	}
	e.ar.Reset()
	e.scratch = nil
	for u := range e.bufs {
		e.bufs[u] = nil
		e.cand[u] = nil
	}
	switch {
	case !e.opts.Deadline.IsZero():
		e.deadline = e.opts.Deadline
	case e.opts.TimeLimit > 0:
		e.deadline = time.Now().Add(e.opts.TimeLimit)
	default:
		e.deadline = time.Time{}
	}
}

// step executes σ[i] and everything after it. It returns false to unwind
// the whole search (deadline hit or visitor stop).
//
//light:hotpath
func (e *Enumerator) step(i int) bool {
	if i == len(e.pl.Sigma) {
		return e.emit()
	}
	op := e.pl.Sigma[i]
	if op.Mode == plan.Comp {
		if !e.compute(op.Vertex) {
			// Empty candidate set prunes this branch; a compute error
			// (memory budget denial) unwinds the whole search.
			return e.err == nil
		}
		return e.step(i + 1)
	}
	return e.matLoop(i, e.cand[op.Vertex])
}

// compute runs the COMP of u (Equation 6) into e.cand[u], returning
// false when the candidate set is empty. In lane mode the operation and
// its kernel-stat delta are charged to every live lane: the operands
// depend only on the assignments above this node, so each live lane's
// sequential run would perform the identical computation here.
func (e *Enumerator) compute(u int) bool {
	if e.lanes != nil {
		before := e.result.Stats
		ok := e.computeShared(u)
		delta := e.result.Stats.Sub(before)
		for m := e.alive; m != 0; m &= m - 1 {
			lc := &e.laneBuf[bits.TrailingZeros64(m)]
			lc.Comps++
			lc.Stats.Add(delta)
		}
		return ok
	}
	return e.computeShared(u)
}

// computeShared is the lane-agnostic COMP body. Every operand is first
// cut to the id window of u's pushed constraints, if it has any. A COMP
// with marked operands intersects its other operands, then filters the
// result through each mark.
//
//light:hotpath
func (e *Enumerator) computeShared(u int) bool {
	e.result.Comps++
	ops := &e.pl.Ops[u]
	push := e.pl.Push[u]
	var lo, hi int64
	if len(push) > 0 {
		lo, hi, _ = e.bounds(push, -1)
	}
	nOperands := len(ops.K1) + len(ops.K2)
	if nOperands == 1 {
		// Single operand: alias, zero intersections (the Fig 2b case).
		if len(ops.K1) == 1 {
			e.cand[u] = e.view.Neighbors(e.assigned[ops.K1[0]])
		} else {
			e.cand[u] = e.cand[ops.K2[0]]
		}
		if len(push) > 0 {
			e.cand[u] = window(e.cand[u], lo, hi)
		}
		return len(e.cand[u]) > 0
	}
	dst := e.buf(u)
	scr := e.scratchBuf()
	if (dst == nil || scr == nil) && e.dmax > 0 {
		// A budgeted arena denied the carve: hard memory-budget stop.
		e.err = ErrMemoryBudget
		return false
	}
	// Marks are bitmap probes: a list kernel, the fallback New picks
	// when the graph has no hub too, runs the plan without them.
	var marks uint32
	if e.useBitmaps {
		marks = e.pl.Marks[u]
	}
	// Under a probing kernel bms runs in lockstep with sets; K2 cached
	// candidates never have bitmap form. A list kernel leaves it empty.
	sets := e.setsTmp[:0]
	bms := e.bmsTmp[:0]
	for _, w := range ops.K1 {
		if marks&(1<<uint(w)) != 0 {
			continue
		}
		v := e.assigned[w]
		sets = append(sets, e.view.Neighbors(v))
		if e.useBitmaps {
			bms = append(bms, e.view.HubBitmap(v))
		}
	}
	for _, w := range ops.K2 {
		sets = append(sets, e.cand[w])
		if e.useBitmaps {
			bms = append(bms, nil)
		}
	}
	if marks != 0 && len(sets) == 1 && bms[0] != nil {
		// The one unmarked operand is a hub: probing the marked lists
		// against its bitmap, as MultiWay does, beats walking the hub's
		// list through the marks.
		for _, w := range ops.K1 {
			if marks&(1<<uint(w)) != 0 {
				v := e.assigned[w]
				sets = append(sets, e.view.Neighbors(v))
				bms = append(bms, e.view.HubBitmap(v))
			}
		}
		marks = 0
	}
	if len(push) > 0 {
		for k := range sets {
			sets[k] = window(sets[k], lo, hi)
		}
	}
	if marks == 0 {
		n := intersect.MultiWay(dst, scr, sets, bms, e.opts.Kernel, intersect.DefaultDelta, &e.result.Stats)
		e.cand[u] = dst[:n]
		return n > 0
	}
	// A lone unmarked operand is probed in place, with no copy.
	cur := sets[0]
	if len(sets) > 1 {
		cur = dst[:intersect.MultiWay(dst, scr, sets, bms, e.opts.Kernel, intersect.DefaultDelta, &e.result.Stats)]
	}
	// Like MultiWay's first pair, the first probe runs even on an empty
	// set; later ones only while the result is non-empty.
	for m := marks; m != 0 && (len(cur) > 0 || m == marks); m &= m - 1 {
		bm := e.fixedBitmap(bits.TrailingZeros32(m))
		if bm == nil {
			e.err = ErrMemoryBudget
			return false
		}
		cur = dst[:intersect.MergeBitmap(dst, cur, bm, &e.result.Stats)]
	}
	e.cand[u] = cur
	return len(cur) > 0
}

// fixedBitmap returns N(φ(w)) as a bitmap for a marked operand w: the
// hub index's bitmap when φ(w) has one, otherwise w's own mark, built on
// its first use and rebuilt, by clearing N(ownV)'s bits and setting
// N(φ(w))'s, only when φ(w) differs from the vertex it was last built
// for. It returns nil when a budgeted arena denies the mark's words.
//
//light:hotpath
func (e *Enumerator) fixedBitmap(w int) *bitset.Bitmap {
	v := e.assigned[w]
	mk := &e.marks[w]
	if mk.bm != nil && mk.v == v {
		return mk.bm
	}
	if hub := e.view.HubBitmap(v); hub != nil {
		mk.v, mk.bm = v, hub
		return hub
	}
	switch {
	case !mk.built:
		words := e.ar.Words(e.markWords)
		if words == nil {
			return nil
		}
		mk.own = bitset.Over(words)
		mk.own.Add(e.view.Neighbors(v))
	case mk.ownV != v:
		mk.own.Remove(e.view.Neighbors(mk.ownV))
		mk.own.Add(e.view.Neighbors(v))
	}
	mk.v, mk.bm, mk.ownV, mk.built = v, &mk.own, v, true
	return mk.bm
}

// buf returns pattern vertex u's cap-d_max candidate buffer, carving it
// from the arena on first use this run.
//
//light:hotpath
func (e *Enumerator) buf(u int) []graph.VertexID {
	b := e.bufs[u]
	if b == nil && e.dmax > 0 {
		b = e.ar.Alloc(e.dmax)
		e.bufs[u] = b
	}
	return b
}

// scratchBuf returns the shared multiway ping-pong buffer, carved from
// the arena on first use this run.
//
//light:hotpath
func (e *Enumerator) scratchBuf() []graph.VertexID {
	if e.scratch == nil && e.dmax > 0 {
		e.scratch = e.ar.Alloc(e.dmax)
	}
	return e.scratch
}

// matLoop materializes σ[i]'s vertex over candidates.
func (e *Enumerator) matLoop(i int, candidates []graph.VertexID) bool {
	u := e.pl.Sigma[i].Vertex
	// Symmetry-breaking bounds: candidates are sorted, so constraints
	// against already-materialized vertices become a sub-range.
	lo, hi, _ := e.bounds(e.pl.MatConstraints[i], -1)
	candidates = window(candidates, lo, hi)
	if len(candidates) == 0 {
		return true
	}
	distinct := e.pl.Distinct[i]

	// A counting run does not walk its last levels: no COMP follows
	// them, so their loop bodies only add to counters. A visitor needs
	// each mapping, a Filter each assignment, and lane mode each leaf's
	// mask probe, so those runs take the full loop. DegreeFilter never
	// rejects here: every pattern neighbour of these vertices is already
	// materialized and their candidates lie in those images' adjacency
	// lists.
	if e.counting && i >= e.tail {
		if i == len(e.pl.Sigma)-1 {
			return e.tailCount(candidates, distinct)
		}
		return e.pairCount(i, candidates)
	}

	minDeg := 0
	if e.opts.DegreeFilter {
		minDeg = e.pl.Pattern.Degree(u)
	}
	for _, v := range candidates {
		// Poll first: the injectivity/degree/filter rejects used to
		// precede the poll, so candidate runs rejected wholesale
		// completed iterations without a cancellation check.
		if !e.checkDeadline() {
			return false
		}
		if e.usedValue(v, distinct) {
			continue
		}
		if minDeg > 0 && e.view.Degree(v) < minDeg {
			continue
		}
		if e.opts.Filter != nil && !e.opts.Filter(u, v) {
			continue
		}
		if e.lanes != nil {
			// Lane mask probe: drop the lanes whose degree threshold
			// rejects this assignment; if none survive, the
			// whole subtree is dead for the batch. The parent's mask
			// is restored after the recursion — cheaper than a frame.
			m := e.alive & e.lanes.MaskFor(e.view.Degree(v))
			if m == 0 {
				continue
			}
			saved := e.alive
			e.alive = m
			e.laneNodes(m)
			e.assigned[u] = v
			e.result.Nodes++
			ok := e.step(i + 1)
			e.alive = saved
			if !ok {
				return false
			}
			continue
		}
		e.assigned[u] = v
		e.result.Nodes++
		if !e.step(i + 1) {
			return false
		}
	}
	return true
}

// lowerBound returns the smallest index k with int64(s[k]) >= x, by
// binary search. Equivalent to sort.Search but closure-free, keeping the
// MAT loop allocation-free.
func lowerBound(s []graph.VertexID, x int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(s[mid]) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// window returns the candidates in the data-vertex id window [lo, hi).
// A bound that cuts nothing costs one comparison, not a binary search.
func window(candidates []graph.VertexID, lo, hi int64) []graph.VertexID {
	if lo >= hi {
		return nil
	}
	if n := len(candidates); n > 0 && int64(candidates[n-1]) >= hi {
		candidates = candidates[:lowerBound(candidates, hi)]
	}
	if len(candidates) > 0 && int64(candidates[0]) < lo {
		candidates = candidates[lowerBound(candidates, lo):]
	}
	return candidates
}

// bounds returns the data-vertex id window [lo, hi) implied by a
// vertex's symmetry-breaking constraints cs. A constraint against
// pattern vertex pair (−1 for none) is not applied; order reports it
// instead: +1 when the vertex must map above pair's, −1 below, 0 when
// unconstrained.
func (e *Enumerator) bounds(cs []plan.Constraint, pair int) (lo, hi int64, order int) {
	lo, hi = 0, int64(e.view.NumVertices())
	for _, c := range cs {
		if c.Other == pair {
			order = -1
			if c.Lower {
				order = 1
			}
			continue
		}
		ov := int64(e.assigned[c.Other])
		if c.Lower {
			if ov+1 > lo {
				lo = ov + 1
			}
		} else {
			if ov < hi {
				hi = ov
			}
		}
	}
	return lo, hi, order
}

// usedValue reports whether data vertex v is already used by one of the
// materialized pattern vertices in distinct, the MAT's injectivity mask
// (plan.Plan.Distinct): no other image can be a candidate.
func (e *Enumerator) usedValue(v graph.VertexID, distinct uint32) bool {
	for m := distinct; m != 0; m &= m - 1 {
		u := trailingZeros32(m)
		if e.assigned[u] == v {
			return true
		}
	}
	return false
}

// tailCount adds the number of valid assignments of the final MAT without
// recursing: candidates within bounds minus the images of distinct, its
// injectivity mask, that lie among them. Nodes grows by the same n, the
// leaves the loop would have expanded.
func (e *Enumerator) tailCount(candidates []graph.VertexID, distinct uint32) bool {
	if !e.checkDeadline() {
		return false
	}
	n := uint64(len(candidates))
	for m := distinct; m != 0; m &= m - 1 {
		w := trailingZeros32(m)
		if intersect.Contains(candidates, e.assigned[w]) {
			n--
		}
	}
	e.result.Matches += n
	e.result.Nodes += n
	return true
}

// pairCount adds the matches of σ's last two MATs, u = σ[i] over cu
// (already cut to u's bounds) and w = σ[i+1], without recursing. No COMP
// follows them, so C(w) does not depend on φ(u): with C′ the candidates
// within bounds minus the values already materialized, the matches are
// the pairs (x, y) ∈ C(u)′ × C(w)′ with x ≠ y — |C(u)′|·|C(w)′| minus
// the overlap — or, under a symmetry-breaking constraint between u and
// w, the pairs in its order, counted by one walk. Nodes grows by
// |C(u)′| + matches, the nodes the two loops would have expanded.
func (e *Enumerator) pairCount(i int, cu []graph.VertexID) bool {
	if !e.checkDeadline() {
		return false
	}
	u, w := e.pl.Sigma[i].Vertex, e.pl.Sigma[i+1].Vertex
	lo, hi, order := e.bounds(e.pl.MatConstraints[i+1], u)
	cw := window(e.cand[w], lo, hi)
	// inU and inW mark the materialized pattern vertices whose values
	// lie in cu and cw: those values are not candidates. Only the two
	// MATs' injectivity masks can hold one; u is w's pair, not a value.
	var inU, inW uint32
	for m := e.pl.Distinct[i]; m != 0; m &= m - 1 {
		if x := trailingZeros32(m); intersect.Contains(cu, e.assigned[x]) {
			inU |= 1 << uint(x)
		}
	}
	for m := e.pl.Distinct[i+1] &^ (1 << uint(u)); m != 0; m &= m - 1 {
		if x := trailingZeros32(m); intersect.Contains(cw, e.assigned[x]) {
			inW |= 1 << uint(x)
		}
	}
	nu := uint64(len(cu) - bits.OnesCount32(inU))
	nw := uint64(len(cw) - bits.OnesCount32(inW))
	var matches uint64
	switch {
	case nu == 0 || nw == 0:
	case order == 0:
		overlap := intersect.Count(cu, cw, intersect.DefaultDelta, &e.result.Stats) - bits.OnesCount32(inU&inW)
		matches = nu*nw - uint64(overlap)
	case order > 0:
		matches = e.pairsBelow(cu, cw, inU, inW)
	default:
		matches = e.pairsBelow(cw, cu, inW, inU)
	}
	e.result.Matches += matches
	e.result.Nodes += nu + matches
	return true
}

// pairsBelow counts the pairs (x, y) ∈ a′ × b′ with x < y, where a′ and
// b′ drop the values of the materialized pattern vertices marked in inA
// and inB. One walk counts the pairs over a × b; inclusion–exclusion
// over the few marked values takes out the pairs that use one.
func (e *Enumerator) pairsBelow(a, b []graph.VertexID, inA, inB uint32) uint64 {
	n := intersect.CountLess(a, b, &e.result.Stats)
	for m := inA; m != 0; m &= m - 1 {
		v := e.assigned[trailingZeros32(m)]
		n -= uint64(len(b) - lowerBound(b, int64(v)+1))
	}
	for m := inB; m != 0; m &= m - 1 {
		v := e.assigned[trailingZeros32(m)]
		n -= uint64(lowerBound(a, int64(v)))
		for ma := inA; ma != 0; ma &= ma - 1 {
			if e.assigned[trailingZeros32(ma)] < v {
				n++
			}
		}
	}
	return n
}

func (e *Enumerator) emit() bool {
	e.result.Matches++
	if e.lanes != nil {
		for m := e.alive; m != 0; m &= m - 1 {
			e.laneBuf[bits.TrailingZeros64(m)].Matches++
		}
	}
	if e.visit != nil && !e.visit(e.assigned) {
		e.result.Stopped = true
		return false
	}
	return true
}

// checkDeadline polls the external stop flag and the clock every 8192
// calls; returns false when the run should unwind. The cadence counter
// is dedicated — keying it to Result.Nodes would let the counted tail's
// batch increments (Nodes += n) step over the zero residue indefinitely,
// making Stop/TimeLimit latency unbounded for counting runs.
func (e *Enumerator) checkDeadline() bool {
	if e.polls&8191 != 0 {
		e.polls++
		return true
	}
	e.polls++
	if e.Progress != nil {
		e.Progress.Add(1)
	}
	if e.Stop != nil && e.Stop.Load() {
		e.result.Stopped = true
		return false
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		e.err = ErrTimeLimit
		return false
	}
	return true
}

// trailingZeros32 is the math/bits intrinsic (the previous hand-rolled
// O(bits) loop additionally spun forever on 0; TrailingZeros32(0) is 32).
func trailingZeros32(x uint32) int {
	return bits.TrailingZeros32(x)
}
