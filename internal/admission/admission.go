// Package admission is the process-wide resource governor shared by
// concurrent enumeration runs: a FIFO-fair elastic worker-slot budget,
// a byte-accounted memory budget (enforced through internal/arena
// limiters), and the stall-watchdog configuration the parallel
// scheduler runs against per-worker progress heartbeats.
//
// The slot protocol: every admitted query is guaranteed one slot (FIFO
// order, so no query starves behind later arrivals), acquires up to
// its requested worker count opportunistically at admission, and
// returns surplus slots at scheduling boundaries while other queries
// wait. A query that cannot get its guaranteed slot before its
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

// ErrOverloaded is returned by Admit when the guaranteed worker slot
// does not free up before the admission deadline — the governor's
// load-shedding signal.
var ErrOverloaded = errors.New("admission: overloaded, no worker slot before deadline")

// ErrStalled is the error a run is cancelled with when the stall
// watchdog fires and cancellation-on-stall is enabled.
var ErrStalled = errors.New("admission: run cancelled by stall watchdog")

// Config configures a Governor.
type Config struct {
	// Slots is the total worker-slot budget shared by every admitted
	// query; defaults to GOMAXPROCS. The governor guarantees one slot
	// per admitted query, so at most Slots queries run at once.
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

// waiter is one query blocked in Admit, woken by slot handoff.
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
	free    int
	waiters []*waiter
	active  map[*Admission]struct{}

	// needy mirrors len(waiters) > 0 so the scheduler's shed check can
	// bail without the lock on the (common) uncontended path.
	needy atomic.Bool

	admitted atomic.Uint64 // queries admitted (observability)
	timeouts atomic.Uint64 // admissions that failed with ErrOverloaded
	handoffs atomic.Uint64 // slots handed directly to a FIFO waiter
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

// Slots returns the governor's total worker-slot budget.
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

// Admit blocks until the query's guaranteed worker slot is available
// (FIFO order among waiters), then opportunistically grabs up to
// want-1 additional slots that no earlier waiter needs. It fails with
// ErrOverloaded when timeout elapses first (timeout <= 0 waits until
// ctx is done), or ctx.Err() on cancellation. The returned Admission
// must be Closed when the run ends.
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
	g.needy.Store(true)
	notify := g.notifyFuncsLocked()
	g.mu.Unlock()

	// Tell every running admission the queue is non-empty, so pools
	// holding surplus slots re-check their shed condition instead of
	// keeping idle workers parked on slots a waiter needs. Called
	// outside g.mu: the notify functions take scheduler locks.
	for _, f := range notify {
		f()
	}

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
		// Granted in the race window: accept the slot after all.
		g.mu.Lock()
		a := g.finishAdmitLocked(want, time.Since(start))
		g.mu.Unlock()
		return a, nil
	case <-done:
		if g.abandonWaiter(w) {
			return nil, ctx.Err()
		}
		g.mu.Lock()
		a := g.finishAdmitLocked(want, time.Since(start))
		g.mu.Unlock()
		a.Close()
		return nil, ctx.Err()
	}
}

// finishAdmitLocked builds the Admission for a query that now holds
// its guaranteed slot, grabbing surplus slots opportunistically —
// never over the heads of queued waiters.
func (g *Governor) finishAdmitLocked(want int, waited time.Duration) *Admission {
	a := &Admission{g: g, held: 1, waited: waited}
	if len(g.waiters) == 0 {
		extra := want - 1
		if extra > g.free {
			extra = g.free
		}
		g.free -= extra
		a.held += extra
	}
	a.granted = a.held
	g.active[a] = struct{}{}
	g.admitted.Add(1)
	return a
}

// abandonWaiter removes w from the queue if it has not been granted;
// it reports whether the abandonment won (false means the slot arrived
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
	if len(g.waiters) == 0 {
		g.needy.Store(false)
	}
	return true
}

// releaseSlotLocked returns one slot to the pool, handing it directly
// to the FIFO head when someone is waiting (direct handoff keeps the
// order fair — a freed slot can never be barged by a later arrival).
func (g *Governor) releaseSlotLocked() {
	if len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		if len(g.waiters) == 0 {
			g.needy.Store(false)
		}
		w.granted = true
		g.handoffs.Add(1)
		close(w.ch)
		return
	}
	g.free++
}

// notifyFuncsLocked snapshots the notify callbacks of active
// admissions (called with g.mu held; the callbacks must be invoked
// after it is released).
func (g *Governor) notifyFuncsLocked() []func() {
	var fns []func()
	for a := range g.active {
		if f := a.notify; f != nil {
			fns = append(fns, f)
		}
	}
	return fns
}

// Admission is one query's handle on the governor: the slots it holds
// and its admission-wait observability. The zero value and nil are
// inert (TryShed and Close no-op), so ungoverned runs need no
// branching.
type Admission struct {
	g       *Governor
	waited  time.Duration
	granted int // slots held at admission (peak)

	// held and shed are guarded by g.mu.
	held int
	shed int
	// notify, set once before the run starts (SetNotify), is called by
	// the governor when a new waiter enqueues.
	notify func()

	closed bool
}

// Wait returns how long the query waited for its guaranteed slot.
func (a *Admission) Wait() time.Duration {
	if a == nil {
		return 0
	}
	return a.waited
}

// Granted returns the number of slots held immediately after
// admission (the run's initial worker-pool size).
func (a *Admission) Granted() int {
	if a == nil {
		return 0
	}
	return a.granted
}

// Slots returns the slots currently held.
func (a *Admission) Slots() int {
	if a == nil {
		return 0
	}
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	return a.held
}

// SetNotify registers f to run when the governor's wait queue becomes
// non-empty — the scheduler points it at its worker wakeup so parked
// workers re-check the shed condition promptly. Call before the run
// starts; f must not call back into the governor synchronously.
func (a *Admission) SetNotify(f func()) {
	if a == nil {
		return
	}
	a.g.mu.Lock()
	a.notify = f
	a.g.mu.Unlock()
}

// TryShed returns one surplus slot to the governor if queries are
// waiting and this admission holds more than its guaranteed slot. It
// reports whether a slot was shed — the calling worker should then
// retire. Allocation-free and cheap when no one is waiting (a single
// atomic load), so schedulers may call it at every boundary.
//
//light:hotpath
func (a *Admission) TryShed() bool {
	if a == nil || !a.g.needy.Load() {
		return false
	}
	return a.shedSlow()
}

// shedSlow is TryShed's contended path, split out so the hot path
// stays a single atomic load.
//
//lightvet:ignore hotpath -- runs only when queries are queued; the shed itself is the cold event being traded
func (a *Admission) shedSlow() bool {
	if err := faultpoint.Hit(faultpoint.PointSlotReturn); err != nil {
		// An injected fault skips this shed; the slot stays with the
		// run and is returned at Close.
		return false
	}
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	if a.closed || a.held <= 1 || len(a.g.waiters) == 0 {
		return false
	}
	a.held--
	a.shed++
	a.g.releaseSlotLocked()
	return true
}

// ReleaseTo returns surplus slots to the governor so the admission
// holds at most n (never below the guaranteed one). Callers that
// decide — e.g. on the memory-degradation ladder — to run fewer
// workers than admission granted must call this before the pool
// spawns: the shed protocol's last-worker guard (held > 1) is only
// sound while held slots == live workers, so slots with no worker
// behind them would both starve waiting queries and let every pool
// worker, including the last, TryShed and retire with work still
// queued. Safe on nil; a no-op when already at or below n.
func (a *Admission) ReleaseTo(n int) {
	if a == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	for !a.closed && a.held > n {
		a.held--
		a.g.releaseSlotLocked()
	}
}

// Shed returns how many slots this admission has returned early.
func (a *Admission) Shed() int {
	if a == nil {
		return 0
	}
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	return a.shed
}

// Close returns every held slot and deregisters the admission.
// Idempotent; safe on nil.
func (a *Admission) Close() {
	if a == nil {
		return
	}
	a.g.mu.Lock()
	if a.closed {
		a.g.mu.Unlock()
		return
	}
	a.closed = true
	held := a.held
	a.held = 0
	for i := 0; i < held; i++ {
		a.g.releaseSlotLocked()
	}
	delete(a.g.active, a)
	a.g.mu.Unlock()
}
