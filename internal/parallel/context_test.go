package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

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

// TestTimeLimitStillSentinel: the supervised error path must keep
// returning the exact engine.ErrTimeLimit sentinel for deadline runs.
func TestTimeLimitStillSentinel(t *testing.T) {
	g := gen.Complete(160)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	_, err := Run(g, pl, Options{
		Workers: 4,
		Engine:  engine.Options{TimeLimit: 20 * time.Millisecond},
	}, nil)
	if !errors.Is(err, engine.ErrTimeLimit) {
		t.Fatalf("err = %v, want engine.ErrTimeLimit", err)
	}
}
