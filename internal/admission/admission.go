// Package admission is the process-wide resource governor shared by
// concurrent enumeration runs: a FIFO-fair budget of run places, a
// byte-accounted memory budget (enforced through internal/arena
// limiters), and the stall-watchdog configuration the parallel
// scheduler runs against per-worker progress heartbeats.
//
// The place protocol: the governor admits at most Slots runs at once, in
// FIFO order, so no query starves behind later arrivals; the workers are
// not its to hand out, since every admitted run shares one pool of Slots
// workers (parallel.Pool) and may have up to min(want, Slots) of them
// inside its units. A query that cannot get a place before its
// admission deadline fails fast with ErrOverloaded instead of piling
// onto an oversubscribed host.
package admission

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"light/internal/arena"
	"light/internal/faultpoint"
)

// ErrOverloaded is returned by Admit when no run place frees up before
// the admission deadline — the governor's load-shedding signal.
var ErrOverloaded = errors.New("admission: overloaded, no run place before deadline")

// ErrStalled is the error a run is cancelled with when the stall
// watchdog fires and cancellation-on-stall is enabled.
var ErrStalled = errors.New("admission: run cancelled by stall watchdog")

// Config configures a Governor.
type Config struct {
	// Slots is the size of the worker pool every admitted run shares,
	// and the number of runs admitted at once; defaults to GOMAXPROCS.
	// A run may have up to min(want, Slots) workers inside its units.
	Slots int
	// MemoryBudget caps the total candidate-arena bytes of all runs
	// admitted through this governor (0 = unlimited). Per-run budgets
	// nest under it.
	MemoryBudget int64
	// StallInterval is the watchdog sampling period (default 1s).
	StallInterval time.Duration
	// StallPatience is how many consecutive intervals a busy worker may
	// go without progress before the watchdog fires (default 5).
	StallPatience int
	// CancelOnStall makes a fired watchdog cooperatively cancel the
	// stalled run (which then returns ErrStalled) instead of only
	// recording the diagnostic.
	CancelOnStall bool
	// DisableWatchdog turns the stall watchdog off entirely.
	DisableWatchdog bool
}

// WatchdogConfig is the per-run stall-watchdog parameterization the
// parallel scheduler consumes: sample worker heartbeats every
// Interval, fire after Patience intervals without progress, and
// optionally cancel the run.
type WatchdogConfig struct {
	Interval time.Duration
	Patience int
	Cancel   bool
}

// waiter is one query blocked in Admit, woken by place handoff.
type waiter struct {
	ch      chan struct{} // closed on grant
	granted bool
}

// Governor is the shared resource governor. Construct with New; the
// zero value is not usable. All methods are safe for concurrent use.
type Governor struct {
	cfg Config
	mem *arena.Limiter // nil when MemoryBudget is 0

	mu      sync.Mutex
	free    int // run places
	waiters []*waiter
	active  map[*Admission]struct{}

	timeouts atomic.Uint64 // admissions that failed with ErrOverloaded
	handoffs atomic.Uint64 // places handed directly to a FIFO waiter
}

// New returns a Governor with cfg, applying defaults.
func New(cfg Config) *Governor {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.StallInterval <= 0 {
		cfg.StallInterval = time.Second
	}
	if cfg.StallPatience <= 0 {
		cfg.StallPatience = 5
	}
	return &Governor{
		cfg:    cfg,
		mem:    arena.NewLimiter(cfg.MemoryBudget, nil),
		free:   cfg.Slots,
		active: map[*Admission]struct{}{},
	}
}

// Slots returns the governor's pool size and run-place budget.
func (g *Governor) Slots() int { return g.cfg.Slots }

// MemLimiter returns the governor's process-wide memory limiter (nil
// when unlimited); per-run limiters chain under it.
func (g *Governor) MemLimiter() *arena.Limiter { return g.mem }

// Watchdog returns the stall-watchdog configuration admitted runs
// should start their watchdog with, or nil when disabled.
func (g *Governor) Watchdog() *WatchdogConfig {
	if g.cfg.DisableWatchdog {
		return nil
	}
	return &WatchdogConfig{
		Interval: g.cfg.StallInterval,
		Patience: g.cfg.StallPatience,
		Cancel:   g.cfg.CancelOnStall,
	}
}

// ActiveQueries returns the number of currently admitted runs.
func (g *Governor) ActiveQueries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.active)
}

// MemoryInUse returns the bytes currently reserved against the
// governor's memory budget.
func (g *Governor) MemoryInUse() int64 { return g.mem.Used() }

// Timeouts returns how many admissions failed with ErrOverloaded.
func (g *Governor) Timeouts() uint64 { return g.timeouts.Load() }

// Admit blocks until a run place is available (FIFO order among
// waiters) and grants the run a cap of min(want, Slots) workers. It
// fails with ErrOverloaded when timeout elapses first (timeout <= 0
// waits until ctx is done), or context.Cause(ctx) on cancellation. The
// returned Admission must be Closed when the run ends.
func (g *Governor) Admit(ctx context.Context, want int, timeout time.Duration) (*Admission, error) {
	if err := faultpoint.Hit(faultpoint.PointSlotGrant); err != nil {
		return nil, fmt.Errorf("admission: slot grant: %w", err)
	}
	if want < 1 {
		want = 1
	}
	start := time.Now()

	g.mu.Lock()
	if g.free > 0 && len(g.waiters) == 0 {
		g.free--
		a := g.finishAdmitLocked(want, 0)
		g.mu.Unlock()
		return a, nil
	}
	w := &waiter{ch: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	var timer *time.Timer
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}

	select {
	case <-w.ch:
		g.mu.Lock()
		a := g.finishAdmitLocked(want, time.Since(start))
		g.mu.Unlock()
		return a, nil
	case <-timeoutC:
		if g.abandonWaiter(w) {
			g.timeouts.Add(1)
			return nil, fmt.Errorf("%w (waited %v)", ErrOverloaded, time.Since(start).Round(time.Millisecond))
		}
		// Granted in the race window: accept the place after all.
		g.mu.Lock()
		a := g.finishAdmitLocked(want, time.Since(start))
		g.mu.Unlock()
		return a, nil
	case <-done:
		if g.abandonWaiter(w) {
			return nil, context.Cause(ctx)
		}
		g.mu.Lock()
		a := g.finishAdmitLocked(want, time.Since(start))
		g.mu.Unlock()
		a.Close()
		return nil, context.Cause(ctx)
	}
}

// finishAdmitLocked builds the Admission for a query that now holds a
// run place.
func (g *Governor) finishAdmitLocked(want int, waited time.Duration) *Admission {
	a := &Admission{g: g, granted: min(want, g.cfg.Slots), waited: waited}
	g.active[a] = struct{}{}
	return a
}

// abandonWaiter removes w from the queue if it has not been granted;
// it reports whether the abandonment won (false means the place arrived
// first and the caller owns it).
func (g *Governor) abandonWaiter(w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			break
		}
	}
	return true
}

// releasePlaceLocked returns one run place, handing it directly to the
// FIFO head when someone is waiting (direct handoff keeps the order
// fair — a freed place can never be barged by a later arrival).
func (g *Governor) releasePlaceLocked() {
	if len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		w.granted = true
		g.handoffs.Add(1)
		close(w.ch)
		return
	}
	g.free++
}

// Admission is one query's handle on the governor: its run place, its
// worker cap and its admission-wait observability. Nil is inert (Close
// no-ops), so ungoverned runs need no branching.
type Admission struct {
	g       *Governor
	waited  time.Duration
	granted int  // the run's worker cap
	closed  bool // guarded by g.mu
}

// Wait returns how long the query waited for its run place.
func (a *Admission) Wait() time.Duration {
	if a == nil {
		return 0
	}
	return a.waited
}

// Granted returns the run's worker cap, min(want, Slots): the most
// workers of the shared pool that may be inside its units at once.
func (a *Admission) Granted() int {
	if a == nil {
		return 0
	}
	return a.granted
}

// Close returns the run place and deregisters the admission.
// Idempotent; safe on nil.
func (a *Admission) Close() {
	if a == nil {
		return
	}
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	a.g.releasePlaceLocked()
	delete(a.g.active, a)
}
