// Package parallel runs enumeration jobs on pools of workers (the
// paper's Section VII-B SMT parallelization) and is the one way every
// query runs, at any worker count. A job is one plan over one view of
// the graph, with its own units: the view's vertices as roots, or a list
// of anchors. A run is one RunJobs call, whatever its number of jobs: a
// CountBatch runs one job per group of queries sharing a plan,
// CountDelta one per anchored plan and side.
//
// A Pool holds W workers and runs the jobs of every run submitted to
// it: a Governor's pool is shared by all the runs it admits, and an
// ungoverned call gets a pool of its own that lives for the call. Each
// run has a cap, the most workers that may be inside its units at once.
// At every unit boundary a worker takes the run with the fewest workers
// inside it, among the runs below their cap with a unit to hand out;
// idle workers park, and a pool with no run holds no goroutine.
//
// Within a run, workers claim every job's units from one cursor, and a
// unit, once claimed, is walked to the end by the worker that claimed
// it. A rooted job's roots go out heaviest first (descending id, which
// is descending degree in the reordered graph), in guided chunks that
// start at one root and grow as the roots get lighter (see run.claim),
// and an anchored job's anchors one at a time. That order stands in for
// the paper's sender-initiated work stealing: the heaviest roots are
// dealt while every worker still has work, and no chunk handed out late
// holds more than about 1/(8W) of what was dealt before it, so the
// last worker to finish is never left with much. A run capped at one
// worker walks the roots in full ChunkSize chunks.
//
// Workers never share partial results; each seat of a run (one per
// worker its cap allows) owns its enumerators and candidate arena, so
// memory stays O(workers · n · d_max) as in the paper's analysis.
//
// The package is supervised (see internal/supervise): worker panics —
// including panics inside user visit callbacks — become ordinary
// errors that stop the run cleanly, runs can be cancelled through a
// context.Context, and runs can periodically checkpoint their committed
// state to disk and later resume with an exactly-equal total match
// count.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"light/internal/admission"
	"light/internal/arena"
	"light/internal/delta"
	"light/internal/engine"
	"light/internal/faultpoint"
	"light/internal/graph"
	"light/internal/lanes"
	"light/internal/plan"
	"light/internal/supervise"
)

// A failed checkpoint write is retried this many times, with jittered
// exponential backoff from checkpointBackoff, before the error is
// surfaced: a transient filesystem error then no longer costs a long run
// its checkpoint.
const (
	checkpointRetries = 3
	checkpointBackoff = 5 * time.Millisecond
)

// CheckpointOptions configure periodic checkpointing of a run.
type CheckpointOptions struct {
	// Path is the checkpoint file. Every write is atomic (temp file +
	// rename), so the file is always either absent, the previous
	// checkpoint, or the new one — never a torn mix.
	Path string
	// Interval between periodic checkpoints (default 30s). Independent
	// of the interval, a final checkpoint is written when the run ends,
	// whether it completed, errored, or was cancelled.
	Interval time.Duration
}

// Options configure a parallel run.
type Options struct {
	// Engine configures each worker's enumerators. Engine.Arena is
	// overridden: every seat of the run gets its own private arena (a
	// shared one would race), and the summed slab footprint is reported
	// as Result.CandidateMemBytes. Engine.Overlay and Engine.Lanes are
	// overridden by each job's own (RunContext takes them from here).
	Engine engine.Options
	// Workers is the run's cap: the most workers inside its units at
	// once; defaults to GOMAXPROCS. Without a Pool it is also the size
	// of the run's own pool.
	Workers int
	// ChunkSize caps the number of root candidates claimed at a time
	// (default 256). A run capped at one worker always claims this many;
	// with a higher cap W a chunk is also held to 1/(8·W) of the job's
	// roots already dispensed, so each job's heaviest roots go out one at
	// a time.
	ChunkSize int
	// Checkpoint, when non-nil, periodically persists the run's
	// committed state so it can be resumed after a crash or kill.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, continues a previous run from its
	// checkpoint: only uncommitted roots are enumerated, and the checkpoint's committed result is folded
	// into the returned Result. The plan and graph must match the ones
	// the checkpoint was written under (verified by fingerprint).
	Resume *supervise.Checkpoint
	// Pool, when non-nil, is the shared pool the run is submitted to
	// (a Governor's); nil runs the call on a pool of Workers workers of
	// its own that lives for the call.
	Pool *Pool
	// MemLimiter, when non-nil, budgets every seat's candidate arena;
	// a denied slab grow hard-stops the run with engine.ErrMemoryBudget
	// (still writing a valid final checkpoint when configured).
	MemLimiter *arena.Limiter
	// Watchdog, when non-nil, starts a stall watchdog that samples
	// per-seat progress heartbeats every Interval and, after Patience
	// intervals without progress from a busy worker, records a
	// diagnostic dump (Result.StallDump) and optionally cancels the run
	// with admission.ErrStalled.
	Watchdog *admission.WatchdogConfig
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 256
	}
	return o
}

// Result extends the engine result with scheduler observability.
type Result struct {
	// Result sums every job's counters; its Lanes are nil, since lane i
	// of one job is not lane i of another.
	engine.Result
	// Jobs holds each job's own counters, Lanes included, in job order.
	Jobs []engine.Result
	// Donations and Steals are always 0: the pool no longer splits a
	// claimed unit, so no work is donated or stolen. They stay only
	// because benchmark/probes.go still reads them (ROADMAP 3(e)).
	Donations, Steals uint64
	// Workers is the run's cap, the length of the per-worker slices.
	Workers             int
	CandidateMemBytes   int64 // total candidate-buffer memory across seats (Table V)
	RootChunksDispensed uint64
	// PerWorkerNodes is the search-tree nodes expanded in each seat of
	// the run — the load-balance evidence.
	PerWorkerNodes []uint64
	// PerWorkerBusy is the time spent in each seat executing root chunks
	// and anchors (the per-thread utilization numerator).
	PerWorkerBusy []time.Duration
	// QueueWaits counts blocking episodes of workers that ran out of this
	// run's work; QueueWaitTotal is the time they spent parked until
	// more arrived or the run ended.
	QueueWaits     uint64
	QueueWaitTotal time.Duration
	// CheckpointWrites counts checkpoint file writes (periodic + final);
	// CheckpointWriteTotal is their cumulative latency.
	CheckpointWrites     uint64
	CheckpointWriteTotal time.Duration
	// CheckpointWriteErrors counts failed checkpoint writes, retried
	// or not; CheckpointRetries counts those that were retried (the
	// jittered-backoff path).
	CheckpointWriteErrors, CheckpointRetries uint64
	// Stalls counts stall-watchdog firings; StallDump is the first
	// stall's diagnostic (per-worker progress table + full stack dump).
	Stalls    uint64
	StallDump string
}

// Run enumerates pl over g with opts.Workers workers and returns the
// combined result. It is RunContext with a background context.
func Run(g *graph.Graph, pl *plan.Plan, opts Options, visit engine.VisitFunc) (Result, error) {
	return RunContext(context.Background(), g, pl, opts, visit)
}

// RunContext enumerates pl over g under ctx: RunJobs with one rooted
// job, whose view is g plus opts.Engine.Overlay and whose lanes are
// opts.Engine.Lanes. Cancellation and ctx deadlines share the engine's
// stop-flag path: the run unwinds at the next poll, the partial result
// is returned with Stopped=true, and the error is ctx.Err(). If visit is
// non-nil it is serialized by a mutex, so enumeration-mode scaling is
// limited; counting mode (visit == nil) is fully parallel. The stop is
// latched under that mutex: once visit has returned false (or panicked)
// it is never called again, even by a worker that was already queued on
// the mutex with its own match. A panic in visit or in a worker is
// recovered, stops the run cleanly, and is returned as a
// *supervise.PanicError.
func RunContext(ctx context.Context, g *graph.Graph, pl *plan.Plan, opts Options, visit engine.VisitFunc) (Result, error) {
	if visit != nil {
		var mu sync.Mutex
		stopped := false
		inner := visit
		visit = func(m []graph.VertexID) bool {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return false
			}
			stopped = true // stays latched if inner panics
			stopped = !inner(m)
			return !stopped
		}
	}
	return RunJobs(ctx, opts, []Job{{View: delta.NewView(g, opts.Engine.Overlay), Plan: pl, Lanes: opts.Engine.Lanes, Visit: visit}})
}

// Job is one plan a run executes over one view of the graph, from its
// own units, reporting its matches to its own visitor.
type Job struct {
	// View is the snapshot the job reads. The jobs of one run may read
	// different views.
	View delta.View
	Plan *plan.Plan
	// Lanes, when non-nil, runs Plan in lane mode (engine.Options.Lanes).
	Lanes *lanes.Set
	// Anchors are the job's units, claimed one at a time and run with
	// engine.RunAnchor (Plan then comes from plan.CompileAnchored). nil
	// makes every vertex of the view a root, dealt heaviest first.
	Anchors []engine.Anchor
	Visit   engine.VisitFunc
}

// RunJobs runs every job as one run on opts.Pool (or on a pool of
// opts.Workers workers of its own) under ctx, with at most opts.Workers
// workers inside its units at once, and returns the combined result,
// each job's own counters in Result.Jobs. Workers claim units of every
// job from one cursor, so a run's jobs balance against each other. Each seat of the run keeps one
// enumerator per job it has met, all carved from its one arena, so many
// jobs cost no more candidate memory than one. Checkpoint and Resume need
// a single rooted job.
//
// A job's Visit is NOT serialized: workers call it concurrently, each
// with its own mapping slice, so it must be safe for concurrent use
// (RunContext serializes the one it is given). A caller that only
// classifies matches then pays no lock per match.
func RunJobs(ctx context.Context, opts Options, jobs []Job) (Result, error) {
	if len(jobs) == 0 {
		return Result{}, errors.New("parallel: RunJobs needs a job")
	}
	if (opts.Checkpoint != nil || opts.Resume != nil) && (len(jobs) > 1 || jobs[0].Anchors != nil || jobs[0].Lanes != nil) {
		return Result{}, errors.New("parallel: checkpoint/resume need a single rooted job without lanes")
	}
	g, pl := jobs[0].View.Base(), jobs[0].Plan // what checkpoints and resumes bind to
	if opts.Engine.Delta < 0 {
		// Reject here, before workers spawn: engine.New panics on a
		// negative δ (it would silently degrade every Hybrid kernel to
		// pure Galloping), and a panic inside a supervised worker is a
		// worse failure report than a plain error at the entry point.
		return Result{}, fmt.Errorf("parallel: Engine.Delta is %d, must be non-negative", opts.Engine.Delta)
	}
	if jobs[0].View.Overlay() != nil && (opts.Checkpoint != nil || opts.Resume != nil) {
		// Checkpoint fingerprints bind only the base graph
		// (supervise.Fingerprint hashes its CSR content + plan, not
		// Options.Filter), so a pending edge delta would silently
		// validate against a stale file. Snapshots must be compacted
		// into a real CSR before they can checkpoint or resume.
		return Result{}, errors.New("parallel: checkpoint/resume require a compacted snapshot; compact the pending edge deltas first")
	}
	opts = opts.withDefaults()
	// Pin one absolute deadline for the whole run: workers process many
	// units, each of which restarts the engine's clock.
	if opts.Engine.TimeLimit > 0 && opts.Engine.Deadline.IsZero() {
		opts.Engine.Deadline = time.Now().Add(opts.Engine.TimeLimit)
	}

	r := &run{
		jobs:  jobs,
		state: make([]jobState, len(jobs)),
		opts:  opts,
		seats: make([]seat, opts.Workers),
		done:  make(chan struct{}),
	}
	for i := range r.seats {
		r.seats[i].engines = make([]*engine.Enumerator, len(jobs))
		r.seats[i].acc = make([]engine.Result, len(jobs))
	}
	visitErrs := make([]func() error, len(jobs))
	for j := range jobs {
		r.state[j].visit, visitErrs[j] = supervise.SafeVisit("visit callback", jobs[j].Visit)
	}

	var base engine.Result
	var priorDone []supervise.RootRange
	if opts.Resume != nil {
		ck := opts.Resume
		if fp := supervise.Fingerprint(g, pl); ck.Fingerprint != fp {
			return Result{}, fmt.Errorf("parallel: checkpoint fingerprint %#x does not match this run (%#x): different graph, pattern, or plan", ck.Fingerprint, fp)
		}
		base = ck.Base
		priorDone = ck.Done
		if ck.Complete {
			out := Result{Jobs: []engine.Result{base}, Workers: opts.Workers}
			out.Result = sumJobs(out.Jobs)
			out.PerWorkerNodes = make([]uint64, opts.Workers)
			out.PerWorkerBusy = make([]time.Duration, opts.Workers)
			return out, nil
		}
	}
	for j, jb := range jobs {
		st := &r.state[j]
		st.start, r.total = r.total, r.total+int64(len(jb.Anchors))
		if jb.Anchors == nil {
			// The root candidate set is every vertex of the job's view —
			// overlay vertices included, so matches rooted at a newly
			// inserted vertex are not lost — less what a resumed
			// checkpoint committed.
			st.roots = pendingRoots(jb.View.NumVertices(), priorDone)
			r.total += int64(len(st.roots))
		}
		st.end = r.total
	}

	if opts.Checkpoint != nil {
		r.led = newLedger(r.state[0].roots, supervise.Fingerprint(g, pl), base, priorDone)
	}
	if ctx != nil && ctx.Err() != nil {
		// Already done: the run ends before any worker takes it instead
		// of racing the watcher to the first poll.
		r.stop.Store(true)
	}

	var ckWG sync.WaitGroup
	var ckStop chan struct{}
	if opts.Checkpoint != nil {
		interval := opts.Checkpoint.Interval
		if interval <= 0 {
			interval = 30 * time.Second
		}
		ckStop = make(chan struct{})
		supervise.Go(&ckWG, "checkpoint writer", func(err error) {
			r.led.noteWriteErr(err)
		}, func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					// A panicking write (e.g. injected faults) must not kill
					// the process; it is recorded like any write error and
					// superseded by the next successful write.
					r.led.noteWriteErr(supervise.Call("checkpoint write", func() error {
						return r.timedCheckpoint(false)
					}))
				case <-ckStop:
					return
				}
			}
		})
	}

	var wdWG sync.WaitGroup
	var wdStop chan struct{}
	if opts.Watchdog != nil && opts.Watchdog.Interval > 0 {
		wdStop = make(chan struct{})
		supervise.Go(&wdWG, "stall watchdog", func(err error) {
			// A watchdog panic must never take the run down; the run
			// simply loses stall coverage.
			_ = err
		}, func() {
			r.watchdog(opts.Watchdog, wdStop)
		})
	}

	p := opts.Pool
	if p == nil {
		p = NewPool(opts.Workers)
	}
	r.pool = p
	p.submit(r)
	// Watch ctx only now: halt may end a run only once it is on its pool.
	release := supervise.WatchContext(ctx, r.halt)
	<-r.done
	release()
	if opts.Pool == nil {
		// The run was the pool's only one: its workers are exiting.
		p.wg.Wait()
	}
	if wdStop != nil {
		close(wdStop)
		wdWG.Wait()
	}
	if ckStop != nil {
		close(ckStop)
		ckWG.Wait()
	}

	out := Result{Jobs: make([]engine.Result, len(jobs)), Workers: opts.Workers}
	out.PerWorkerNodes = make([]uint64, opts.Workers)
	out.PerWorkerBusy = make([]time.Duration, opts.Workers)
	out.Jobs[0].Add(base)
	for i := range r.seats {
		s := &r.seats[i]
		for j, res := range s.acc {
			out.Jobs[j].Add(res)
			out.PerWorkerNodes[i] += res.Nodes
		}
		if s.ar != nil {
			out.CandidateMemBytes += s.ar.Bytes()
		}
		out.PerWorkerBusy[i] = s.busy
	}
	out.Result = sumJobs(out.Jobs)
	// A run stopped before any worker met the stop still ends cut short.
	out.Stopped = out.Stopped || r.stop.Load() && r.cursor.Load() < r.total
	out.RootChunksDispensed = r.chunks.Load()

	err := joinErrors(r.errs)
	for _, visitErr := range visitErrs {
		if verr := visitErr(); verr != nil {
			err = joinErrors([]error{err, verr})
		}
	}
	if opts.Checkpoint != nil {
		complete := err == nil && !out.Stopped
		werr := supervise.Call("checkpoint write", func() error {
			return r.timedCheckpoint(complete)
		})
		if werr != nil {
			err = joinErrors([]error{err, werr})
		}
	}
	if err == nil && out.Stopped && r.stallCancelled.Load() {
		err = admission.ErrStalled
	}
	if err == nil && out.Stopped && ctx != nil && ctx.Err() != nil {
		err = ctx.Err()
	}

	out.QueueWaits = r.qWaits.Load()
	out.QueueWaitTotal = time.Duration(r.qWaitNS.Load())
	out.CheckpointWrites = r.ckWrites.Load()
	out.CheckpointWriteTotal = time.Duration(r.ckWriteNS.Load())
	out.CheckpointWriteErrors = r.ckWriteErrs.Load()
	out.CheckpointRetries = r.ckRetries.Load()
	out.Stalls = r.stalls.Load()
	out.StallDump = r.stallDump
	return out, err
}

// sumJobs adds up the jobs' counters, leaving out their lanes.
func sumJobs(jobs []engine.Result) engine.Result {
	var sum engine.Result
	for _, r := range jobs {
		r.Lanes = nil
		sum.Add(r)
	}
	return sum
}

// joinErrors aggregates worker errors: nil when all are nil, the
// first error when every failure is the same value (preserving sentinel
// comparisons like err == engine.ErrTimeLimit), errors.Join otherwise.
func joinErrors(errs []error) error {
	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	if len(nonNil) == 0 {
		return nil
	}
	same := true
	for _, e := range nonNil[1:] {
		if e != nonNil[0] {
			same = false
			break
		}
	}
	if same {
		return nonNil[0]
	}
	return errors.Join(nonNil...)
}

// Pool is a set of worker goroutines shared by every run submitted to
// it. A worker starts when a run needs it and the pool is below its
// size, and exits when the pool has no run left, so an idle Pool holds
// no goroutine and needs no Close. Safe for concurrent use.
type Pool struct {
	size int

	mu    sync.Mutex
	cond  *sync.Cond
	runs  []*run       // live runs in submission order (mu)
	nruns atomic.Int32 // len(runs), read at unit boundaries without mu
	live  int          // worker goroutines (mu)
	idle  int          // workers parked on cond (mu)
	wg    sync.WaitGroup
}

// NewPool returns a pool of size workers (GOMAXPROCS when size <= 0).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: size}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// worker is one pool goroutine's view of where it is: the run and seat
// whose unit it is inside (nil between units), and the run it last
// left, which its next wait for work is charged to.
type worker struct {
	r    *run
	s    *seat
	last *run
}

// submit adds r to the pool, starts the workers its cap can use that
// the pool has neither parked nor running, and wakes the parked ones.
// Worker-start faults are hit here, in the submitter, so an injected
// failure is charged to the run that asked for the worker.
func (p *Pool) submit(r *run) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := max(0, min(len(r.seats)-p.idle, p.size-p.live))
	for i := 0; i < n; i++ {
		if err := supervise.Call("parallel worker start", func() error {
			return faultpoint.Hit(faultpoint.PointWorkerStart)
		}); err != nil {
			// The stopped run ends below, before any worker starts.
			r.errs = append(r.errs, fmt.Errorf("parallel: worker start: %w", err))
			r.stop.Store(true)
			break
		}
	}
	p.runs = append(p.runs, r)
	p.nruns.Store(int32(len(p.runs)))
	if r.doneLocked() {
		p.finishLocked(r)
		return
	}
	p.spawnLocked(n)
	p.cond.Broadcast()
}

// spawnLocked starts n workers.
func (p *Pool) spawnLocked(n int) {
	for i := 0; i < n; i++ {
		w := &worker{}
		p.live++
		supervise.Go(&p.wg, "parallel worker", func(err error) { p.lost(w, err) }, func() { p.work(w) })
	}
}

// work is a worker goroutine's body: take the run the pool chooses, serve
// it until the next unit boundary that leaves the choice open, leave, and
// choose again; park while no run has work this worker may take, and exit
// when the pool has no run at all.
func (p *Pool) work(w *worker) {
	p.mu.Lock()
	for {
		r := p.awaitLocked(w.last)
		if r == nil {
			p.live--
			p.mu.Unlock()
			return
		}
		s := r.sitLocked()
		if p.idle > 0 && p.pickLocked() != nil {
			// Work this worker did not take: a parked one may.
			p.cond.Signal()
		}
		w.r, w.s = r, s
		p.mu.Unlock()
		err := r.serve(s)
		p.mu.Lock()
		w.r, w.s, w.last = nil, nil, r
		r.standLocked(s, err)
	}
}

// lost is a worker's panic path: the panic becomes the error of the run
// the worker was inside, which stops, and a replacement starts while
// the pool still has runs.
func (p *Pool) lost(w *worker, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live--
	if r := w.r; r != nil {
		r.stop.Store(true)
		r.standLocked(w.s, err)
	}
	if len(p.runs) > 0 {
		p.spawnLocked(1)
	}
}

// pickLocked returns the run a free worker should take: among the runs
// that are not stopped, are below their cap, and have a unit to hand
// out, the one with the fewest workers inside, the earliest submitted on
// a tie; nil when there is none.
func (p *Pool) pickLocked() *run {
	var best *run
	for _, r := range p.runs {
		if r.stop.Load() || r.inside >= len(r.seats) || r.cursor.Load() >= r.total {
			continue
		}
		if best == nil || r.inside < best.inside {
			best = r
		}
	}
	return best
}

// awaitLocked returns the run a free worker takes next, parking it
// until some run has work for it; nil when the pool has no run left. A
// park counts as one queue wait of last, the run the worker ran out of,
// if that run was still going. (A shared pool's worker woken by last's
// end may charge it after RunJobs has read the counters; a run's own
// pool is waited for, so its counters are whole.)
func (p *Pool) awaitLocked(last *run) *run {
	r := p.pickLocked()
	if r != nil || len(p.runs) == 0 {
		return r
	}
	if last != nil && last.finished {
		last = nil
	}
	t0 := time.Now()
	p.idle++
	for r == nil && len(p.runs) > 0 {
		p.cond.Wait()
		r = p.pickLocked()
	}
	p.idle--
	if last != nil {
		last.qWaits.Add(1)
		last.qWaitNS.Add(uint64(time.Since(t0)))
	}
	return r
}

// finishLocked ends r: its workers have all left, and its units are
// exhausted or it was stopped. It takes r off the pool and releases
// RunJobs.
func (p *Pool) finishLocked(r *run) {
	r.finished = true
	for i, q := range p.runs {
		if q == r {
			p.runs = append(p.runs[:i], p.runs[i+1:]...)
			break
		}
	}
	p.nruns.Store(int32(len(p.runs)))
	close(r.done)
	p.cond.Broadcast()
}

// seat is one of a run's cap places for a worker inside its units, and
// what a worker there works with: the seat's enumerator per job, built
// on first use over the seat's one arena, and its results per job; its
// busy time; and the watchdog's heartbeat and epoch. One worker at a
// time sits in a seat, handed over under the pool lock, so none of it
// needs more synchronization than that.
type seat struct {
	taken   bool // pool mu
	busy    time.Duration
	ar      *arena.Arena
	engines []*engine.Enumerator
	acc     []engine.Result
	// beat is the engine's deadline-poll heartbeat; epoch goes odd when
	// a worker enters RunRoots/RunAnchor and even when it returns — a seat
	// whose epoch is odd and whose beat stops moving holds a wedged
	// worker, not one between work items.
	beat, epoch atomic.Uint64
}

// jobState is the run's own state of one job: its supervised visitor,
// and where its units sit on the cursor — positions [start, end), which
// are its roots, heaviest first, or its anchors.
type jobState struct {
	visit      engine.VisitFunc
	roots      []graph.VertexID
	start, end int64
}

// run is one RunJobs call's scheduler state on its pool.
type run struct {
	pool *Pool
	jobs []Job
	opts Options // opts.Workers is the cap, len(seats)
	led  *ledger // nil when checkpointing is off

	// The work dispensed by the cursor: every job's units, job after job
	// (see jobState), total in all.
	state  []jobState
	cursor atomic.Int64 // next unclaimed unit
	total  int64

	seats []seat        // one per cap place
	done  chan struct{} // closed when the run ends

	// Guarded by pool.mu.
	inside    int // workers in seats
	errs      []error
	finished  bool
	stallDump string // the first stall's diagnostic

	stop   atomic.Bool
	chunks atomic.Uint64

	stallCancelled atomic.Bool
	stalls         atomic.Uint64

	qWaits      atomic.Uint64 // parks of workers that ran out of this run's work
	qWaitNS     atomic.Uint64 // nanoseconds they spent parked
	ckRetries   atomic.Uint64
	ckWrites    atomic.Uint64 // checkpoint writes attempted
	ckWriteNS   atomic.Uint64 // cumulative checkpoint write latency
	ckWriteErrs atomic.Uint64 // checkpoint writes that failed
}

// doneLocked reports whether r can end: no worker is inside it, and its
// units are exhausted or it was stopped.
func (r *run) doneLocked() bool {
	return !r.finished && r.inside == 0 && (r.stop.Load() || r.cursor.Load() >= r.total)
}

// sitLocked puts a worker in one of r's free seats.
func (r *run) sitLocked() *seat {
	r.inside++
	for i := range r.seats {
		if s := &r.seats[i]; !s.taken {
			s.taken = true
			return s
		}
	}
	panic("parallel: run above its cap")
}

// standLocked takes a worker out of its seat with the error its last
// unit returned, and ends r if that was its last worker and work.
func (r *run) standLocked(s *seat, err error) {
	r.inside--
	s.taken = false
	if err != nil {
		r.errs = append(r.errs, err)
	}
	if r.doneLocked() {
		r.pool.finishLocked(r)
	}
}

// halt stops r from outside its units (context cancellation, the
// watchdog): workers inside leave at their next poll, and a run no
// worker is inside ends at once.
func (r *run) halt() {
	r.stop.Store(true)
	p := r.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.doneLocked() {
		p.finishLocked(r)
	}
}

// engine returns the seat's enumerator for a job, building it on first
// use over the job's view and lanes. All of a seat's enumerators share
// its arena, built with the first: they run one at a time, and each run
// begins by resetting it.
//
//lightvet:ignore hotpath -- construction happens once per (seat, job); every later call is the slice load
func (r *run) engine(s *seat, job int) *engine.Enumerator {
	if e := s.engines[job]; e != nil {
		return e
	}
	if s.ar == nil {
		// Under a memory budget each seat's arena charges the run's
		// limiter.
		s.ar = arena.NewBudgeted(r.opts.MemLimiter)
	}
	jb := &r.jobs[job]
	eopts := r.opts.Engine
	eopts.Arena, eopts.Overlay, eopts.Lanes = s.ar, jb.View.Overlay(), jb.Lanes
	e := engine.New(jb.View.Base(), jb.Plan, eopts)
	e.Stop = &r.stop
	e.Progress = &s.beat
	s.engines[job] = e
	return e
}

// serve runs r's units from seat s until r runs dry or stops, or, at a
// unit boundary, the pool holds another run to choose between. It stays
// allocation-free in steady state: candidate buffers come from the
// seat's arena (slabs grown on the first chunk, reused afterwards), and
// the ledger (acknowledged-cold, once per chunk) owns its own memory.
//
//light:hotpath
func (r *run) serve(s *seat) error {
	for !r.stop.Load() {
		job, lo, hi, ok := r.claim()
		if !ok {
			return nil
		}
		r.chunks.Add(1)
		st := &r.state[job]
		var res engine.Result
		var err error
		t0 := time.Now()
		s.epoch.Add(1)
		if anchors := r.jobs[job].Anchors; anchors != nil {
			res, err = r.engine(s, job).RunAnchor(anchors[lo], st.visit)
		} else {
			res, err = r.engine(s, job).RunRoots(st.roots[lo:hi], st.visit)
		}
		s.epoch.Add(1)
		s.busy += time.Since(t0)
		s.acc[job].Add(res)
		if err != nil || res.Stopped {
			r.stop.Store(true)
			return err
		}
		r.led.finish(lo, hi, res)
		if r.pool.nruns.Load() > 1 {
			return nil
		}
	}
	return nil
}

// claim takes the next chunk [lo, hi) of one job's units off the
// cursor, in that job's own indices, or reports that none is left. A
// chunk never spans two jobs. Roots are dealt heaviest first, so per-root
// work roughly falls as lo grows, and a chunk of at most lo/(8·W) roots,
// W the run's cap, costs at most about 1/(8W) of the job's work already
// handed out: that bounds what one worker can be left holding when the
// others run dry. Each job's hubs go out one at a time and its chunks
// grow to the ChunkSize cap as the roots get lighter. A run capped at
// one worker keeps nobody waiting, so it claims full chunks. An anchor is
// always a unit alone.
//
//light:hotpath
func (r *run) claim() (job int, lo, hi int64, ok bool) {
	for {
		c := r.cursor.Load()
		job = 0
		for job < len(r.state) && c >= r.state[job].end {
			job++
		}
		if job == len(r.state) {
			return 0, 0, 0, false
		}
		st := &r.state[job]
		lo = c - st.start
		n := int64(1)
		if r.jobs[job].Anchors == nil {
			n = int64(r.opts.ChunkSize)
			if r.opts.Workers > 1 {
				n = min(max(lo/(8*int64(r.opts.Workers)), 1), n)
			}
		}
		end := min(c+n, st.end)
		if r.cursor.CompareAndSwap(c, end) {
			return job, lo, end - st.start, true
		}
	}
}

// writeCheckpoint persists the ledger's committed state to the
// configured checkpoint path.
func (r *run) writeCheckpoint(complete bool) error {
	ck := r.led.snapshot(r.cursor.Load())
	ck.Complete = complete
	return ck.Save(r.opts.Checkpoint.Path)
}

// timedCheckpoint wraps writeCheckpoint with write-latency accounting
// and retry-with-jittered-backoff: a transient filesystem error costs
// a few milliseconds, not the run's checkpoint. A panicking write skips
// the accounting — the supervising Call converts it to an error above
// this frame (and is not retried: a panic is a bug, not a transient).
func (r *run) timedCheckpoint(complete bool) error {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		err := r.writeCheckpoint(complete)
		r.ckWrites.Add(1)
		r.ckWriteNS.Add(uint64(time.Since(t0)))
		if err == nil {
			return nil
		}
		r.ckWriteErrs.Add(1)
		if attempt >= checkpointRetries {
			return err
		}
		r.ckRetries.Add(1)
		// Exponential backoff with ±50% jitter; the cold path may use
		// math/rand freely.
		d := checkpointBackoff << attempt
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d))))
	}
}
