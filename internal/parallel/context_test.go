package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"light/internal/admission"
	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// TestContextCancellationMidRun cancels from inside the visitor after a
// few matches: the pool must stop promptly, report the partial count
// with Stopped=true, and return context.Canceled.
func TestContextCancellationMidRun(t *testing.T) {
	// The workload must dwarf the engine's stop-poll interval so the
	// cancellation is observed long before the run could finish.
	g := gen.Complete(160)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	t.Run("WorkStealing", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var seen atomic.Uint64
		res, err := RunContext(ctx, g, pl, Options{Workers: 4, ChunkSize: 8}, func(m []graph.VertexID) bool {
			if seen.Add(1) == 5 {
				cancel()
			}
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !res.Stopped {
			t.Fatal("cancelled run must report Stopped")
		}
		if res.Matches < 5 {
			t.Fatalf("partial count %d lost visited matches", res.Matches)
		}
	})
}

// TestContextDeadlineMidRun lets a context deadline fire during a long
// count-only run.
func TestContextDeadlineMidRun(t *testing.T) {
	g := gen.Complete(160)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	t.Run("WorkStealing", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		res, err := RunContext(ctx, g, pl, Options{Workers: 4}, nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if !res.Stopped {
			t.Fatal("deadline-stopped run must report Stopped")
		}
	})
}

// TestStopCauses stops one long run in every way a run can end early,
// count-only and with a visitor, at one worker and at four. Each way
// must leave Stopped=true with partial counters, return its own error,
// and leave no goroutine behind; a run that ends inside its limit must
// return nil with Stopped=false. The count-only run has no visitor to
// wedge, so its engine Filter wedges instead, and it has none to return
// false either.
func TestStopCauses(t *testing.T) {
	g := gen.Complete(160)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	const full = 838300208 // C(160, 5)
	errSentinel := errors.New("parallel test: stop cause")
	cases := []struct {
		name string
		// start derives the run's context from its parent.
		start func(parent context.Context) (context.Context, context.CancelFunc)
		// wedge makes the first call outlast the watchdog's patience, with
		// a watchdog that cancels; visitorStop makes the visitor return
		// false on its 1000th call. The count-only run has no visitor.
		wedge, visitorStop bool
		want               error
	}{
		{name: "parent cancel", want: context.Canceled,
			start: func(parent context.Context) (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(parent)
				time.AfterFunc(20*time.Millisecond, cancel)
				return ctx, cancel
			}},
		{name: "parent deadline", want: context.DeadlineExceeded,
			start: func(parent context.Context) (context.Context, context.CancelFunc) {
				return context.WithTimeout(parent, 20*time.Millisecond)
			}},
		{name: "timeout cause", want: errSentinel,
			start: func(parent context.Context) (context.Context, context.CancelFunc) {
				return context.WithTimeoutCause(parent, 20*time.Millisecond, errSentinel)
			}},
		{name: "watchdog", want: admission.ErrStalled, wedge: true},
		{name: "visitor false", visitorStop: true},
	}
	for _, workers := range []int{1, 4} {
		for _, kind := range []string{"count", "visit"} {
			for _, c := range cases {
				if c.visitorStop && kind == "count" {
					continue
				}
				t.Run(fmt.Sprintf("W%d/%s/%s", workers, kind, c.name), func(t *testing.T) {
					before := runtime.NumGoroutine()
					ctx := context.Background()
					if c.start != nil {
						var cancel context.CancelFunc
						ctx, cancel = c.start(ctx)
						defer cancel()
					}
					opts := Options{Workers: workers}
					if c.wedge {
						opts.Watchdog = &admission.WatchdogConfig{Interval: 5 * time.Millisecond, Patience: 3, Cancel: true}
					}
					var calls atomic.Int64
					call := func() bool {
						n := calls.Add(1)
						if c.wedge && n == 1 {
							time.Sleep(300 * time.Millisecond) // a wedged callback
						}
						return !c.visitorStop || n < 1000
					}
					var visit engine.VisitFunc
					if kind == "visit" {
						visit = func([]graph.VertexID) bool { return call() }
					} else {
						opts.Engine.Filter = func(int, graph.VertexID) bool { return call() }
					}
					res, err := RunContext(ctx, g, pl, opts, visit)
					if !errors.Is(err, c.want) {
						t.Fatalf("err = %v, want %v", err, c.want)
					}
					if !res.Stopped {
						t.Fatal("stopped run reports Stopped=false")
					}
					if res.Matches == 0 || res.Matches >= full || res.Nodes == 0 {
						t.Fatalf("counters not partial: %d matches, %d nodes", res.Matches, res.Nodes)
					}
					awaitGoroutines(t, before)
				})
			}
		}
	}
	t.Run("within limit", func(t *testing.T) {
		small := gen.BarabasiAlbert(300, 4, 5)
		tri := compile(t, pattern.Triangle(), plan.ModeLIGHT)
		want := sequentialCount(t, small, tri)
		for _, workers := range []int{1, 4} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeoutCause(context.Background(), time.Minute, errSentinel)
			res, err := RunContext(ctx, small, tri, Options{Workers: workers}, nil)
			cancel()
			if err != nil || res.Stopped || res.Matches != want {
				t.Fatalf("W%d: err = %v, Stopped = %v, %d matches; want nil, false, %d", workers, err, res.Stopped, res.Matches, want)
			}
			awaitGoroutines(t, before)
		}
	})
}

// awaitGoroutines waits up to five seconds for the goroutine count to
// fall back to before.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestContextAlreadyCancelled: a pre-cancelled context stops a long run
// at its first poll without crashing. The workload is large enough that
// it cannot finish before the stop flag is observed.
func TestContextAlreadyCancelled(t *testing.T) {
	g := gen.Complete(160)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, g, pl, Options{Workers: 4}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Stopped {
		t.Fatalf("pre-cancelled long run completed: %+v", res.Result)
	}
}

// TestVisitorPanicIsIsolated: a panic inside the user visitor must come
// back as a *supervise.PanicError with all workers exited — not crash
// the process or deadlock the pool.
func TestVisitorPanicIsIsolated(t *testing.T) {
	g := gen.BarabasiAlbert(500, 6, 3)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	t.Run("WorkStealing", func(t *testing.T) {
		var seen atomic.Uint64
		done := make(chan struct{})
		var res Result
		var err error
		go func() {
			defer close(done)
			res, err = Run(g, pl, Options{Workers: 4, ChunkSize: 8}, func(m []graph.VertexID) bool {
				if seen.Add(1) == 7 {
					panic("visitor exploded")
				}
				return true
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("pool deadlocked after visitor panic")
		}
		var pe *supervise.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *supervise.PanicError", err)
		}
		if pe.Value != "visitor exploded" {
			t.Fatalf("panic value %v", pe.Value)
		}
		if !res.Stopped {
			t.Fatal("panic-stopped run must report Stopped")
		}
	})
}

// TestTimeLimitStillSentinel: a run stopped by a timeout context
// returns that context's cause itself, not wrapped and not joined, so
// callers can compare it with ==.
func TestTimeLimitStillSentinel(t *testing.T) {
	g := gen.Complete(160)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	_, err := runLimited(g, pl, Options{Workers: 4}, 20*time.Millisecond)
	if err != errLimit {
		t.Fatalf("err = %v, want errLimit", err)
	}
}
