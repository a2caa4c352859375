// Package parallel runs enumeration jobs on a pool of workers (the
// paper's Section VII-B SMT parallelization) and is the one way every
// query runs, at any worker count. A job is one plan over one view of
// the graph, with its own units: the view's vertices as roots, or a list
// of anchors. One library call is one pool run, whatever its number of
// jobs: a lane batch runs one job per lane group, CountDelta one per
// anchored plan and side. Workers claim every job's units from one
// cursor; a rooted job's roots go out heaviest first (descending id,
// which is descending degree in the reordered graph), in guided chunks
// that start at one root and grow as the roots get lighter (see
// pool.claim), and an anchored job's anchors one at a time. While busy
// they donate halves of their current materialization loops to a global
// concurrent queue whenever idle workers are waiting — the
// sender-initiated strategy of Rao & Kumar / Acar et al. that the paper
// adopts — which still splits a single root that dominates the run. A
// pool of one worker has no thief, so it installs no donation hook and
// walks the roots in full ChunkSize chunks.
//
// Workers never share partial results; each owns an Enumerator with its
// candidate buffers, so memory stays O(workers · n · d_max) as in the
// paper's analysis.
//
// The package is supervised (see internal/supervise): worker panics —
// including panics inside user visit callbacks — become ordinary
// errors that stop the pool cleanly, runs can be cancelled through a
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
	"light/internal/metrics"
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
	// overridden: every worker gets its own private arena (a shared one
	// would race), and the summed slab footprint is reported as
	// Result.CandidateMemBytes. Engine.Overlay and Engine.Lanes are
	// overridden by each job's own (RunContext takes them from here).
	// Engine.Metrics, when non-nil, receives
	// the run's counters: engine work folded per chunk/frame plus
	// scheduler events (steals, donations, queue waits, busy time,
	// checkpoint write latency), every worker folding into it.
	Engine engine.Options
	// Workers is the number of worker goroutines; defaults to GOMAXPROCS.
	Workers int
	// ChunkSize caps the number of root candidates claimed at a time
	// (default 256). A one-worker pool always claims this many; with more
	// workers a chunk is also held to 1/(8·Workers) of the job's roots
	// already dispensed, so each job's heaviest roots go out one at a time.
	ChunkSize int
	// MinSplit is the smallest materialization loop a worker will split
	// for donation (default 8).
	MinSplit int
	// Checkpoint, when non-nil, periodically persists the run's
	// committed state so it can be resumed after a crash or kill.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, continues a previous run from its
	// checkpoint: only uncommitted roots and outstanding donated frames
	// are enumerated, and the checkpoint's committed result is folded
	// into the returned Result. The plan and graph must match the ones
	// the checkpoint was written under (verified by fingerprint).
	Resume *supervise.Checkpoint
	// Gate, when non-nil, is this run's admission under a shared
	// Governor: workers check it at scheduling boundaries (between
	// chunks and frames, and while parked on the queue) and retire when
	// a surplus slot is shed to a waiting query.
	Gate *admission.Admission
	// MemLimiter, when non-nil, budgets every worker's candidate arena;
	// a denied slab grow hard-stops the run with engine.ErrMemoryBudget
	// (still writing a valid final checkpoint when configured).
	MemLimiter *arena.Limiter
	// Watchdog, when non-nil, starts a stall watchdog that samples
	// per-worker progress heartbeats every Interval and, after Patience
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
	if o.MinSplit <= 0 {
		o.MinSplit = 8
	}
	return o
}

// Result extends the engine result with scheduler observability.
type Result struct {
	// Result sums every job's counters; its Lanes are nil, since lane i
	// of one job is not lane i of another.
	engine.Result
	// Jobs holds each job's own counters, Lanes included, in job order.
	Jobs                []engine.Result
	Donations           uint64 // frames pushed to the global queue
	Steals              uint64 // frames executed by a worker other than the donor
	Workers             int
	CandidateMemBytes   int64 // total candidate-buffer memory across workers (Table V)
	RootChunksDispensed uint64
	// PerWorkerNodes is the search-tree nodes each worker expanded — the
	// load-balance evidence.
	PerWorkerNodes []uint64
	// PerWorkerBusy is the time each worker spent executing root chunks
	// and donated frames (the per-thread utilization numerator).
	PerWorkerBusy []time.Duration
	// QueueWaits counts worker blocking episodes on the frame queue;
	// QueueWaitTotal is the time spent blocked across all workers.
	QueueWaits     uint64
	QueueWaitTotal time.Duration
	// CheckpointWrites counts checkpoint file writes (periodic + final);
	// CheckpointWriteTotal is their cumulative latency.
	CheckpointWrites     uint64
	CheckpointWriteTotal time.Duration
	// CheckpointRetries counts failed checkpoint writes that were
	// retried (the jittered-backoff path).
	CheckpointRetries uint64
	// SlotsShed counts workers retired early because the admission
	// governor handed their slot to a waiting query.
	SlotsShed uint64
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
// recovered, stops the pool cleanly, and is returned as a
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
	return RunJobs(ctx, opts, []Job{{Graph: g, Overlay: opts.Engine.Overlay, Plan: pl, Lanes: opts.Engine.Lanes, Visit: visit}})
}

// Job is one plan a pool runs over one view of the graph, from its own
// units, reporting its matches to its own visitor.
type Job struct {
	// Graph is the base CSR of the job's view and Overlay, when non-nil,
	// the edge delta over it. The jobs of one run may read different views.
	Graph   *graph.Graph
	Overlay *delta.Overlay
	Plan    *plan.Plan
	// Lanes, when non-nil, runs Plan in lane mode (engine.Options.Lanes).
	Lanes engine.LaneProber
	// Anchors are the job's units, claimed one at a time and run with
	// engine.RunAnchor (Plan then comes from plan.CompileAnchored). nil
	// makes every vertex of the view a root, dealt heaviest first.
	Anchors []engine.Anchor
	Visit   engine.VisitFunc
}

// RunJobs runs every job on one pool of opts.Workers workers under ctx
// and returns the combined result, each job's own counters in
// Result.Jobs. Workers claim units of every job from one cursor and
// donate halves of the loops below them, so a run's jobs balance against
// each other. A worker keeps one enumerator per job it has met, all
// carved from its one arena, so many jobs cost no more candidate memory
// than one. Checkpoint and Resume need a single rooted job.
//
// A job's Visit is NOT serialized: workers call it concurrently, each
// with its own mapping slice, so it must be safe for concurrent use
// (RunContext serializes the one it is given). A caller that only
// classifies matches then pays no lock per match.
func RunJobs(ctx context.Context, opts Options, jobs []Job) (Result, error) {
	if len(jobs) == 0 {
		return Result{}, errors.New("parallel: RunJobs needs a job")
	}
	if (opts.Checkpoint != nil || opts.Resume != nil) && (len(jobs) > 1 || jobs[0].Anchors != nil) {
		return Result{}, errors.New("parallel: checkpoint/resume need a single rooted job")
	}
	g, pl := jobs[0].Graph, jobs[0].Plan // what checkpoints and resumes bind to
	if opts.Engine.Delta < 0 {
		// Reject here, before workers spawn: engine.New panics on a
		// negative δ (it would silently degrade every Hybrid kernel to
		// pure Galloping), and a panic inside a supervised worker is a
		// worse failure report than a plain error at the entry point.
		return Result{}, fmt.Errorf("parallel: Engine.Delta is %d, must be non-negative", opts.Engine.Delta)
	}
	if jobs[0].Overlay != nil && (opts.Checkpoint != nil || opts.Resume != nil) {
		// Checkpoint fingerprints bind only the base graph's structure
		// (supervise.Fingerprint hashes N/M/d_max + plan), so a pending
		// edge delta would silently validate against a stale file; and a
		// resumed frame's candidate sets were computed under whatever view
		// the writer had. Snapshots must be compacted into a real CSR
		// before they can checkpoint or resume.
		return Result{}, errors.New("parallel: checkpoint/resume require a compacted snapshot; compact the pending edge deltas first")
	}
	opts = opts.withDefaults()
	// Pin one absolute deadline for the whole run: workers process many
	// chunks and frames, each of which restarts the engine's clock.
	if opts.Engine.TimeLimit > 0 && opts.Engine.Deadline.IsZero() {
		opts.Engine.Deadline = time.Now().Add(opts.Engine.TimeLimit)
	}

	// One recorder for the whole pool: workers fold engine results into
	// it per chunk/frame, scheduler events hit it from blocking paths.
	rec := opts.Engine.Metrics

	p := &pool{
		jobs:   jobs,
		state:  make([]jobState, len(jobs)),
		opts:   opts,
		alive:  opts.Workers,
		beats:  make([]atomic.Uint64, opts.Workers),
		epochs: make([]atomic.Uint64, opts.Workers),
	}
	p.cond = sync.NewCond(&p.mu)
	visitErrs := make([]func() error, len(jobs))
	for j := range jobs {
		p.state[j].visit, visitErrs[j] = supervise.SafeVisit("visit callback", jobs[j].Visit)
	}
	if opts.Gate != nil {
		// Wake parked workers when the governor's queue goes non-empty,
		// so surplus slots are shed promptly instead of at the next
		// scheduling event.
		opts.Gate.SetNotify(p.wakeAll)
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
			base.AddTo(rec)
			return out, nil
		}
		for _, f := range ck.Frames {
			if err := f.Validate(pl, g); err != nil {
				return Result{}, fmt.Errorf("parallel: invalid checkpoint frame: %w", err)
			}
		}
	}
	var units int64
	for j, jb := range jobs {
		st := &p.state[j]
		st.start, units = units, units+int64(len(jb.Anchors))
		if jb.Anchors == nil {
			// The root candidate set is every vertex of the job's view —
			// overlay vertices included, so matches rooted at a newly
			// inserted vertex are not lost — less what a resumed
			// checkpoint committed.
			n := jb.Graph.NumVertices()
			if jb.Overlay != nil {
				n = jb.Overlay.NumVertices()
			}
			st.roots = pendingRoots(n, priorDone)
			units += int64(len(st.roots))
		}
		st.end = units
	}

	if opts.Checkpoint != nil {
		p.led = newLedger(p.state[0].roots, supervise.Fingerprint(g, pl), base, priorDone)
	}
	if opts.Resume != nil {
		for _, f := range opts.Resume.Frames {
			p.queue = append(p.queue, queuedFrame{f: f, unit: p.led.beginFrame(0, f)})
		}
	}

	release := supervise.WatchContext(ctx, func() {
		p.stop.Store(true)
		p.wakeAll()
	})
	defer release()
	if ctx != nil && ctx.Err() != nil {
		// Already done: stop at the first poll instead of racing the
		// watcher to it.
		p.stop.Store(true)
	}

	var wg sync.WaitGroup
	results := make([]engine.Result, opts.Workers*len(jobs)) // worker w's per job at [w*len(jobs):]
	errs := make([]error, opts.Workers)
	memBytes := make([]int64, opts.Workers)
	busys := make([]time.Duration, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		w := w
		supervise.Go(&wg, fmt.Sprintf("parallel worker %d", w), func(err error) {
			// Panic path: the worker died without returning. Record the
			// converted panic and make sure no peer waits for it.
			errs[w] = err
			p.stop.Store(true)
			p.wakeAll()
		}, func() {
			memBytes[w], busys[w], errs[w] = p.worker(w, results[w*len(jobs):(w+1)*len(jobs)])
			if errs[w] != nil {
				p.stop.Store(true)
				p.wakeAll()
			}
		})
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
			p.led.noteWriteErr(err)
		}, func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					// A panicking write (e.g. injected faults) must not kill
					// the process; it is recorded like any write error and
					// superseded by the next successful write.
					p.led.noteWriteErr(supervise.Call("checkpoint write", func() error {
						return p.timedCheckpoint(false)
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
			// A watchdog panic must never take the run down; the pool
			// simply loses stall coverage.
			_ = err
		}, func() {
			p.watchdog(opts.Watchdog, wdStop)
		})
	}

	wg.Wait()
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
	out.PerWorkerBusy = busys
	out.Jobs[0].Add(base)
	for w := 0; w < opts.Workers; w++ {
		for j, r := range results[w*len(jobs) : (w+1)*len(jobs)] {
			out.Jobs[j].Add(r)
			out.PerWorkerNodes[w] += r.Nodes
		}
		out.CandidateMemBytes += memBytes[w]
		rec.AddDuration(metrics.ParallelBusyNanos, busys[w])
	}
	out.Result = sumJobs(out.Jobs)
	out.Donations = p.donations.Load()
	out.Steals = p.steals.Load()
	out.RootChunksDispensed = p.chunks.Load()

	err := joinErrors(errs)
	for _, visitErr := range visitErrs {
		if verr := visitErr(); verr != nil {
			err = joinErrors([]error{err, verr})
		}
	}
	if opts.Checkpoint != nil {
		complete := err == nil && !out.Stopped
		werr := supervise.Call("checkpoint write", func() error {
			return p.timedCheckpoint(complete)
		})
		if werr != nil {
			err = joinErrors([]error{err, werr})
		}
	}
	if err == nil && out.Stopped && p.stallCancelled.Load() {
		err = admission.ErrStalled
	}
	if err == nil && out.Stopped && ctx != nil && ctx.Err() != nil {
		err = ctx.Err()
	}

	// Scheduler-level counters: pool atomics folded once per run, plus
	// the resumed checkpoint's committed engine counters.
	out.QueueWaits = p.qWaits.Load()
	out.QueueWaitTotal = time.Duration(p.qWaitNS.Load())
	out.CheckpointWrites = p.ckWrites.Load()
	out.CheckpointWriteTotal = time.Duration(p.ckWriteNS.Load())
	out.CheckpointRetries = p.ckRetries.Load()
	out.SlotsShed = p.shed.Load()
	out.Stalls = p.stalls.Load()
	p.mu.Lock()
	out.StallDump = p.stallDump
	p.mu.Unlock()
	rec.Add(metrics.ParallelDonations, out.Donations)
	rec.Add(metrics.ParallelSteals, out.Steals)
	rec.Add(metrics.ParallelRootChunks, out.RootChunksDispensed)
	rec.Add(metrics.ParallelQueueWaits, out.QueueWaits)
	rec.Add(metrics.ParallelQueueWaitNanos, p.qWaitNS.Load())
	rec.Add(metrics.CheckpointWrites, out.CheckpointWrites)
	rec.Add(metrics.CheckpointWriteNanos, p.ckWriteNS.Load())
	rec.Add(metrics.CheckpointWriteErrors, p.ckWriteErrs.Load())
	rec.Add(metrics.CheckpointRetries, out.CheckpointRetries)
	rec.Add(metrics.AdmissionSlotsShed, out.SlotsShed)
	rec.Add(metrics.WatchdogStalls, out.Stalls)
	base.AddTo(rec)
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

// queuedFrame is one donated frame awaiting a worker, paired with its
// ledger unit (0 when checkpointing is off) and the job whose plan it
// suspends.
type queuedFrame struct {
	f    *engine.Frame
	unit unitID
	job  int
}

// workerState is per-worker scheduler state reachable from the
// donation hook: the ledger unit of the chunk or frame the worker is
// currently executing, so donated frames can be parented correctly,
// the job it belongs to, and the worker's accumulated busy time (owned
// by one goroutine, no synchronization needed). engines holds the
// worker's enumerator per job, built on first use over the one arena,
// and acc its results per job.
type workerState struct {
	idx     int
	unit    unitID
	job     int
	busy    time.Duration
	ar      *arena.Arena
	engines []*engine.Enumerator
	acc     []engine.Result
}

// jobState is the pool's own state of one job: its supervised visitor,
// and where its units sit on the cursor — positions [start, end), which
// are its roots, heaviest first, or its anchors.
type jobState struct {
	visit      engine.VisitFunc
	roots      []graph.VertexID
	start, end int64
}

// pool is the shared scheduler state.
type pool struct {
	jobs []Job
	opts Options
	led  *ledger // nil when checkpointing is off

	// The work dispensed by the cursor: every job's units, job after job
	// (see jobState).
	state  []jobState
	cursor atomic.Int64 // next unclaimed unit

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []queuedFrame
	idle     int
	alive    int // workers not yet retired by slot shedding (mu-guarded)
	finished bool
	stop     atomic.Bool
	hungry   atomic.Int32 // idle workers wanting tasks (donation trigger)
	chunks   atomic.Uint64

	donations atomic.Uint64
	steals    atomic.Uint64

	// Stall-watchdog state: beats is the engine's deadline-poll
	// heartbeat, epochs goes odd when a worker enters RunRoots/Resume
	// and even when it returns — a worker whose epoch is odd and whose
	// beat stops moving is wedged, not merely between work items.
	beats  []atomic.Uint64
	epochs []atomic.Uint64
	// stallDump (mu-guarded) keeps the first stall's diagnostic.
	stallDump      string
	stallCancelled atomic.Bool
	stalls         atomic.Uint64
	shed           atomic.Uint64
	ckRetries      atomic.Uint64

	// Scheduler-event counters folded into the run's metrics recorder
	// (and the Result) once, at the end of RunJobs.
	qWaits      atomic.Uint64 // blocking episodes in takeFrame
	qWaitNS     atomic.Uint64 // nanoseconds spent blocked in takeFrame
	ckWrites    atomic.Uint64 // checkpoint writes attempted
	ckWriteNS   atomic.Uint64 // cumulative checkpoint write latency
	ckWriteErrs atomic.Uint64 // checkpoint writes that failed
}

// worker sets up this worker's state and hands off to the scheduling
// loop, accumulating its results per job into acc; it returns when the
// units are exhausted and the queue stays empty with every other worker
// idle.
func (p *pool) worker(idx int, acc []engine.Result) (int64, time.Duration, error) {
	if err := faultpoint.Hit(faultpoint.PointWorkerStart); err != nil {
		return 0, 0, fmt.Errorf("parallel: worker %d start: %w", idx, err)
	}
	// Per-worker: arenas must never be shared across goroutines. Under a
	// memory budget each worker's arena charges the shared limiter.
	ws := &workerState{idx: idx, ar: arena.NewBudgeted(p.opts.MemLimiter), engines: make([]*engine.Enumerator, len(p.jobs)), acc: acc}
	err := p.runLoop(ws)
	return ws.ar.Bytes(), ws.busy, err
}

// engine returns the worker's enumerator for a job, building it on
// first use over the job's view and lanes. All of a worker's
// enumerators share its arena: they run one at a time, and each run
// begins by resetting it.
//
//lightvet:ignore hotpath -- construction happens once per (worker, job); every later call is the slice load
func (p *pool) engine(ws *workerState, job int) *engine.Enumerator {
	if e := ws.engines[job]; e != nil {
		return e
	}
	jb := &p.jobs[job]
	eopts := p.opts.Engine
	eopts.Arena, eopts.Overlay, eopts.Lanes = ws.ar, jb.Overlay, jb.Lanes
	e := engine.New(jb.Graph, jb.Plan, eopts)
	e.Stop = &p.stop
	e.Progress = &p.beats[ws.idx]
	if p.opts.Workers > 1 {
		// A lone worker has no thief to donate to.
		e.Hook = p.makeHook(ws)
	}
	ws.engines[job] = e
	return e
}

// runLoop is the worker body proper: claim root chunks while any remain,
// then execute donated frames until global termination. It stays
// allocation-free in steady state — candidate buffers come from the
// worker's arena (slabs grown on the first chunk, reused afterwards),
// and the ledger (acknowledged-cold, once per chunk) owns its own
// memory.
//
//light:hotpath
func (p *pool) runLoop(ws *workerState) error {
	for {
		// Elastic slot return: between work items, hand a surplus slot
		// to a query waiting on the shared governor and retire this
		// worker (a single atomic load when no one is waiting).
		if p.opts.Gate.TryShed() {
			p.retire()
			return nil
		}
		// Phase 1: claim a chunk of one job's roots, or one of its anchors.
		if job, lo, hi, ok := p.claim(); ok {
			p.chunks.Add(1)
			ws.unit, ws.job = p.led.beginChunk(lo, hi), job
			st := &p.state[job]
			var res engine.Result
			var err error
			t0 := time.Now()
			p.epochs[ws.idx].Add(1)
			if anchors := p.jobs[job].Anchors; anchors != nil {
				res, err = p.engine(ws, job).RunAnchor(anchors[lo], st.visit)
			} else {
				res, err = p.engine(ws, job).RunRoots(st.roots[lo:hi], st.visit)
			}
			p.epochs[ws.idx].Add(1)
			ws.busy += time.Since(t0)
			ws.acc[job].Add(res)
			if err != nil || res.Stopped {
				p.stop.Store(true)
				p.wakeAll()
				return err
			}
			p.led.finish(ws.unit, res)
			continue
		}
		// Phase 2: take donated frames, or wait for some.
		qf, ok := p.takeFrame()
		if !ok {
			return nil
		}
		if err := faultpoint.Hit(faultpoint.PointFrameResume); err != nil {
			p.stop.Store(true)
			p.wakeAll()
			return err
		}
		p.steals.Add(1)
		ws.unit, ws.job = qf.unit, qf.job
		e := p.engine(ws, qf.job)
		t0 := time.Now()
		p.epochs[ws.idx].Add(1)
		res, err := e.Resume(qf.f, p.state[qf.job].visit)
		p.epochs[ws.idx].Add(1)
		ws.busy += time.Since(t0)
		ws.acc[qf.job].Add(res)
		if err != nil || res.Stopped {
			p.stop.Store(true)
			p.wakeAll()
			return err
		}
		p.led.finish(qf.unit, res)
	}
}

// claim takes the next chunk [lo, hi) of one job's units off the
// cursor, in that job's own indices, or reports that none is left. A
// chunk never spans two jobs. Roots are dealt heaviest first, so per-root
// work roughly falls as lo grows, and a chunk of at most lo/(8·W) roots
// costs at most about 1/(8W) of the job's work already handed out: that
// bounds what one worker can be left holding when the others run dry.
// Each job's hubs go out one at a time and its chunks grow to the
// ChunkSize cap as the roots get lighter. A lone worker keeps nobody
// waiting, so it claims full chunks. An anchor is always a unit alone.
//
//light:hotpath
func (p *pool) claim() (job int, lo, hi int64, ok bool) {
	for {
		c := p.cursor.Load()
		job = 0
		for job < len(p.state) && c >= p.state[job].end {
			job++
		}
		if job == len(p.state) {
			return 0, 0, 0, false
		}
		st := &p.state[job]
		lo = c - st.start
		n := int64(1)
		if p.jobs[job].Anchors == nil {
			n = int64(p.opts.ChunkSize)
			if p.opts.Workers > 1 {
				n = min(max(lo/(8*int64(p.opts.Workers)), 1), n)
			}
		}
		end := min(c+n, st.end)
		if p.cursor.CompareAndSwap(c, end) {
			return job, lo, end - st.start, true
		}
	}
}

// retire removes a worker from the pool's accounting after its slot
// was shed to another query. The idle==alive termination equality is
// re-broadcast so parked peers re-evaluate it.
func (p *pool) retire() {
	p.shed.Add(1)
	p.mu.Lock()
	p.alive--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// makeHook builds the sender-initiated donation hook: when idle workers
// are waiting and the queue is empty, split the remaining candidates of
// the current materialization loop in half and publish a frame. The
// scheduler lock is released by defer, so a panic anywhere inside the
// donation path (snapshotting, injected faults) unwinds with the lock
// free and can never wedge the other workers.
func (p *pool) makeHook(ws *workerState) engine.MatHook {
	return func(e *engine.Enumerator, sigmaIdx int, cands []graph.VertexID) int {
		if len(cands) < p.opts.MinSplit || p.hungry.Load() == 0 {
			return len(cands)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.idle == 0 || len(p.queue) >= p.idle {
			return len(cands)
		}
		if err := faultpoint.Hit(faultpoint.PointDonate); err != nil {
			// Donation is optional work: an injected fault skips this
			// donation and the worker keeps its whole loop.
			return len(cands)
		}
		keep := len(cands) / 2
		f := e.Snapshot(sigmaIdx, cands[keep:])
		p.queue = append(p.queue, queuedFrame{f: f, unit: p.led.beginFrame(ws.unit, f), job: ws.job})
		p.donations.Add(1)
		p.cond.Broadcast()
		return keep
	}
}

// takeFrame blocks until a frame is available or the pool terminates.
// Each blocking episode (one takeFrame call that had to Wait, however
// many spurious wakeups it saw) counts as one queue wait.
func (p *pool) takeFrame() (queuedFrame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle++
	p.hungry.Add(1)
	var waitStart time.Time
	for {
		if len(p.queue) > 0 {
			qf := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			p.idle--
			p.hungry.Add(-1)
			p.noteWait(waitStart)
			return qf, true
		}
		if p.finished || p.stop.Load() || p.idle == p.alive {
			// Termination: all live workers idle and nothing queued.
			// Latch the state and wake the rest so they observe it too.
			p.finished = true
			p.cond.Broadcast()
			p.idle--
			p.hungry.Add(-1)
			p.noteWait(waitStart)
			return queuedFrame{}, false
		}
		// A parked worker is the cheapest one to retire: hand its slot
		// to a waiting query. idle and alive drop together, so the
		// termination equality for the remaining workers is unchanged.
		// Lock order is p.mu → governor mu, here and everywhere.
		if p.opts.Gate.TryShed() {
			p.shed.Add(1)
			p.idle--
			p.alive--
			p.hungry.Add(-1)
			p.cond.Broadcast()
			p.noteWait(waitStart)
			return queuedFrame{}, false
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
			p.qWaits.Add(1)
		}
		p.cond.Wait()
	}
}

// noteWait records the blocked span of one takeFrame episode; start is
// zero when the call never blocked.
func (p *pool) noteWait(start time.Time) {
	if !start.IsZero() {
		p.qWaitNS.Add(uint64(time.Since(start)))
	}
}

func (p *pool) wakeAll() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// writeCheckpoint persists the ledger's committed state to the
// configured checkpoint path.
func (p *pool) writeCheckpoint(complete bool) error {
	ck := p.led.snapshot(p.cursor.Load())
	ck.Complete = complete
	return ck.Save(p.opts.Checkpoint.Path)
}

// timedCheckpoint wraps writeCheckpoint with write-latency accounting
// and retry-with-jittered-backoff: a transient filesystem error costs
// a few milliseconds, not the run's checkpoint. A panicking write skips
// the accounting — the supervising Call converts it to an error above
// this frame (and is not retried: a panic is a bug, not a transient).
func (p *pool) timedCheckpoint(complete bool) error {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		err := p.writeCheckpoint(complete)
		p.ckWrites.Add(1)
		p.ckWriteNS.Add(uint64(time.Since(t0)))
		if err == nil {
			return nil
		}
		p.ckWriteErrs.Add(1)
		if attempt >= checkpointRetries {
			return err
		}
		p.ckRetries.Add(1)
		// Exponential backoff with ±50% jitter; the cold path may use
		// math/rand freely.
		d := checkpointBackoff << attempt
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d))))
	}
}
