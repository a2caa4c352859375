package light

import (
	"context"
	"errors"
	"fmt"
	"time"

	"light/internal/admission"
	"light/internal/arena"
	"light/internal/parallel"
)

// ErrOverloaded is returned when a run sharing a Governor cannot get a
// run place before Options.AdmissionTimeout elapses — the governor's
// load-shedding signal. Callers should back off and
// retry, or surface the overload to their own clients.
var ErrOverloaded = errors.New("light: overloaded, admission deadline exceeded")

// ErrMemoryBudget is returned when a run's candidate arenas would
// reserve past Options.MemoryBudget or GovernorConfig.MemoryBudget: the
// first denied reservation stops the run, with its partial result. A
// checkpointing run still writes a valid final checkpoint first, so the
// work is resumable with a larger budget.
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

// ran is what one governed run returns: the pool run's result, what its
// admission knew — the wait for the run place and the workers granted,
// both zero without a Governor — and every degradation event.
type ran struct {
	parallel.Result
	admissionWait time.Duration
	slotsGranted  int
	degradations  []string
}

// governed is the back half every entry point that runs the worker pool
// shares: wait (FIFO) for a run place under Options.Governor, chain the
// run's memory budget under the governor's, hand what was granted to one
// run — on the Governor's pool, or on one of its own — and release the
// place and the reservations. The budget is a ceiling: an arena whose
// reservation it denies stops the run with ErrMemoryBudget. popts
// carries the run's engine and checkpoint options; run starts the run
// with them, under ctx bounded by Options.TimeLimit, whose clock starts
// here, after admission. It returns nil when admission failed, before
// any worker started.
func (o Options) governed(ctx context.Context, popts parallel.Options, run func(context.Context, parallel.Options) (parallel.Result, error)) (*ran, error) {
	popts.Workers = max(o.Workers, 1)
	var place *admission.Admission
	var govLim *arena.Limiter
	var degradations []string
	if o.Governor != nil {
		gov := o.Governor.g
		a, err := gov.Admit(ctx, popts.Workers, o.AdmissionTimeout)
		if err != nil {
			return nil, mapErr(err)
		}
		defer a.Close()
		if a.Granted() < popts.Workers {
			degradations = append(degradations, fmt.Sprintf(
				"admission: granted %d of %d requested workers", a.Granted(), popts.Workers))
		}
		place, govLim = a, gov.MemLimiter()
		popts.Workers, popts.Pool, popts.Watchdog = a.Granted(), o.Governor.pool, gov.Watchdog()
	}
	popts.MemLimiter = arena.NewLimiter(o.MemoryBudget, govLim)
	defer popts.MemLimiter.ReleaseAll()
	if o.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, o.TimeLimit, ErrTimeLimit)
		defer cancel()
	}
	pres, err := run(ctx, popts)
	if pres.Stalls > 0 {
		degradations = append(degradations, fmt.Sprintf(
			"watchdog: %d stall(s) detected", pres.Stalls))
	}
	return &ran{
		Result:        pres,
		admissionWait: place.Wait(),
		slotsGranted:  place.Granted(),
		degradations:  degradations,
	}, err
}
