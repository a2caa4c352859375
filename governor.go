package light

import (
	"context"
	"errors"
	"fmt"
	"time"

	"light/internal/admission"
	"light/internal/arena"
	"light/internal/faultpoint"
	"light/internal/parallel"
)

// ErrOverloaded is returned when a run sharing a Governor cannot get a
// run place before Options.AdmissionTimeout elapses — the governor's
// load-shedding signal. Callers should back off and
// retry, or surface the overload to their own clients.
var ErrOverloaded = errors.New("light: overloaded, admission deadline exceeded")

// ErrMemoryBudget is returned when a run exhausts its memory budget
// after every degradation rung (fewer workers, exact-size arena slabs).
// A checkpointing run still writes a valid final checkpoint first, so
// the work is resumable with a larger budget.
var ErrMemoryBudget = errors.New("light: memory budget exceeded")

// ErrStalled is returned when the stall watchdog cancelled the run
// (GovernorConfig.CancelOnStall) after a worker stopped making
// progress; the RunReport's StallDump carries the diagnostic.
var ErrStalled = errors.New("light: run cancelled by stall watchdog")

// GovernorConfig configures NewGovernor.
type GovernorConfig struct {
	// Slots is the size of the worker pool every run admitted through
	// the governor shares, and how many runs it admits at once; defaults
	// to GOMAXPROCS. An admitted run may have up to min(Options.Workers,
	// Slots) of the pool's workers inside its units at once.
	Slots int
	// MemoryBudget caps the total candidate-arena bytes across all
	// admitted runs (0 = unlimited). Per-run Options.MemoryBudget
	// ceilings nest under it.
	MemoryBudget int64
	// StallInterval is the watchdog sampling period (default 1s).
	StallInterval time.Duration
	// StallPatience is how many consecutive intervals a busy worker may
	// go without progress before the watchdog records a diagnostic
	// (default 5).
	StallPatience int
	// CancelOnStall makes a fired watchdog cancel the stalled run with
	// ErrStalled instead of only recording the diagnostic.
	CancelOnStall bool
	// DisableWatchdog turns the stall watchdog off for admitted runs.
	DisableWatchdog bool
}

// Governor is a process-wide resource governor shared by concurrent
// runs: one pool of Slots workers that every admitted run shares,
// FIFO-fair admission to Slots run places, an optional shared memory
// budget, and a stall watchdog. Create one Governor per process (or per
// tenant class) and point every run's Options.Governor at it; all
// methods are safe for concurrent use. An idle Governor holds no
// goroutine, so it needs no Close.
type Governor struct {
	g    *admission.Governor
	pool *parallel.Pool
}

// NewGovernor returns a Governor with cfg, applying defaults.
func NewGovernor(cfg GovernorConfig) *Governor {
	g := admission.New(admission.Config{
		Slots:           cfg.Slots,
		MemoryBudget:    cfg.MemoryBudget,
		StallInterval:   cfg.StallInterval,
		StallPatience:   cfg.StallPatience,
		CancelOnStall:   cfg.CancelOnStall,
		DisableWatchdog: cfg.DisableWatchdog,
	})
	return &Governor{g: g, pool: parallel.NewPool(g.Slots())}
}

// Slots returns the governor's pool size and run-place budget.
func (gv *Governor) Slots() int { return gv.g.Slots() }

// ActiveQueries returns the number of currently admitted runs.
func (gv *Governor) ActiveQueries() int { return gv.g.ActiveQueries() }

// MemoryInUse returns the bytes currently reserved against the
// governor's shared memory budget (0 when unbudgeted).
func (gv *Governor) MemoryInUse() int64 { return gv.g.MemoryInUse() }

// Timeouts returns how many admissions failed with ErrOverloaded.
func (gv *Governor) Timeouts() uint64 { return gv.g.Timeouts() }

// validate is the single pre-spawn choke point for Options: every
// invalid field is rejected with an error here, before any worker
// goroutine, arena, or checkpoint file is created. (Engine- and
// scheduler-level checks below this layer remain as defense in depth.)
func (o Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("light: Options.Workers is %d, must be non-negative (0 means one worker)", o.Workers)
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("light: Options.TimeLimit is %v, must be non-negative", o.TimeLimit)
	}
	if o.CheckpointInterval < 0 {
		return fmt.Errorf("light: Options.CheckpointInterval is %v, must be non-negative", o.CheckpointInterval)
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("light: Options.MemoryBudget is %d, must be non-negative (0 means unlimited)", o.MemoryBudget)
	}
	if o.AdmissionTimeout < 0 {
		return fmt.Errorf("light: Options.AdmissionTimeout is %v, must be non-negative (0 waits until the context is done)", o.AdmissionTimeout)
	}
	return nil
}

// grant is what the governance prelude leaves a run holding: its worker
// cap after admission and the memory ladder, its run place, and the
// pool and watchdog to hand the scheduler (nil without a Governor), the
// run's memory limiter chained under the governor's, and the
// degradation events so far.
type grant struct {
	workers      int
	place        *admission.Admission
	pool         *parallel.Pool
	watchdog     *admission.WatchdogConfig
	lim          *arena.Limiter
	degradations []string
}

// admit is the governance prelude shared by every entry point that runs
// the worker pool: wait (FIFO) for a run place under Options.Governor,
// chain the run's memory budget under the governor's, and walk the
// memory-degradation ladder for a run whose workers each hold
// patternVerts+1 cap-maxDegree buffers. With neither a Governor nor a
// MemoryBudget it grants max(Workers, 1) workers, no place and a nil
// limiter at once. The caller must release the grant.
func (o Options) admit(ctx context.Context, maxDegree, patternVerts int) (*grant, error) {
	gr := &grant{workers: o.Workers}
	if gr.workers <= 1 {
		gr.workers = 1
	}
	var govLim *arena.Limiter
	if o.Governor != nil {
		gov := o.Governor.g
		a, err := gov.Admit(ctx, gr.workers, o.AdmissionTimeout)
		if err != nil {
			return nil, mapErr(err)
		}
		gr.place, gr.pool = a, o.Governor.pool
		gr.watchdog = gov.Watchdog()
		govLim = gov.MemLimiter()
		if a.Granted() < gr.workers {
			gr.degradations = append(gr.degradations, fmt.Sprintf(
				"admission: granted %d of %d requested workers", a.Granted(), gr.workers))
		}
		gr.workers = a.Granted()
	}
	gr.lim = arena.NewLimiter(o.MemoryBudget, govLim)
	if err := gr.sizeWorkers(maxDegree, patternVerts); err != nil {
		gr.release()
		return nil, err
	}
	return gr, nil
}

// ran is what one governed run returns: the pool run's result, what its
// admission grant knew — the wait for the run place and the workers
// granted, both zero without a Governor — and every degradation event.
type ran struct {
	parallel.Result
	admissionWait time.Duration
	slotsGranted  int
	degradations  []string
}

// governed is the back half every entry point that runs the worker pool
// shares: admit the call, hand what was granted to one run — on the
// Governor's pool, or on one of its own — and settle. popts carries the
// run's engine and checkpoint options; run starts the run with them. It
// returns nil when admission failed, before any worker started.
func (o Options) governed(ctx context.Context, maxDegree, patternVerts int, popts parallel.Options, run func(parallel.Options) (parallel.Result, error)) (*ran, error) {
	gr, err := o.admit(ctx, maxDegree, patternVerts)
	if err != nil {
		return nil, err
	}
	defer gr.release()
	popts.Workers, popts.Pool, popts.Watchdog, popts.MemLimiter = gr.workers, gr.pool, gr.watchdog, gr.lim
	pres, err := run(popts)
	return &ran{
		Result:        pres,
		admissionWait: gr.place.Wait(),
		slotsGranted:  gr.place.Granted(),
		degradations:  gr.settle(pres.Stalls),
	}, err
}

// sizeWorkers walks the memory-degradation ladder before the run starts:
// if its cap's predicted arena footprint exceeds the budget headroom
// even with exact-size (tight) slabs, the cap is shed — down to serial —
// so the run fits; the engine's hard
// ErrMemoryBudget stop remains as the last resort for predictions the
// estimate cannot see (the prediction covers per-worker candidate
// buffers, the dominant term).
func (gr *grant) sizeWorkers(maxDegree, patternVerts int) error {
	head := gr.lim.Headroom()
	if head < 0 {
		return nil
	}
	if err := faultpoint.Hit(faultpoint.PointBudgetCheck); err != nil {
		return fmt.Errorf("light: budget check: %w", err)
	}
	// Per-worker worst case: one cap-d_max buffer per pattern vertex
	// plus one scratch buffer.
	tightEst := arena.EstimateBytes(patternVerts+1, maxDegree, true)
	if tightEst <= 0 || int64(gr.workers)*tightEst <= head {
		return nil
	}
	fit := int(head / tightEst)
	if fit < 1 {
		fit = 1
	}
	if fit < gr.workers {
		gr.degradations = append(gr.degradations, fmt.Sprintf(
			"memory: shed workers %d -> %d (predicted %d B/worker, headroom %d B)",
			gr.workers, fit, tightEst, head))
		gr.workers = fit
	}
	return nil
}

// settle appends the degradations only visible after the run — arena
// pressure, watchdog stalls — and returns the full list.
func (gr *grant) settle(stalls uint64) []string {
	if n := gr.lim.TightGrows(); n > 0 {
		gr.degradations = append(gr.degradations, fmt.Sprintf(
			"memory: %d exact-size arena slab grows under budget pressure", n))
	}
	if stalls > 0 {
		gr.degradations = append(gr.degradations, fmt.Sprintf(
			"watchdog: %d stall(s) detected", stalls))
	}
	return gr.degradations
}

// release returns the grant's memory reservations and run place.
func (gr *grant) release() {
	gr.lim.ReleaseAll()
	gr.place.Close()
}
