package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestPoolRunCaps: runs capped at 1..W share one pool of W workers (run
// it under -race). Submitted together, each keeps at most its cap of
// workers inside its units — visits never overlap more than that — and
// counts exactly; and a run submitted while another has every worker
// starts at that run's next unit boundary, long before it runs dry.
func TestPoolRunCaps(t *testing.T) {
	const w = 4
	g := gen.BarabasiAlbert(600, 5, 9)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	want := sequentialCount(t, g, pl)
	pool := NewPool(w)
	ctx := context.Background()

	t.Run("caps", func(t *testing.T) {
		var wg sync.WaitGroup
		for c := 1; c <= w; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var inside, high atomic.Int32
				visit := func([]graph.VertexID) bool {
					n := inside.Add(1)
					for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
					}
					time.Sleep(10 * time.Microsecond)
					inside.Add(-1)
					return true
				}
				res, err := RunJobs(ctx, Options{Workers: c, Pool: pool, ChunkSize: 4}, []Job{{Graph: g, Plan: pl, Visit: visit}})
				if err != nil {
					t.Errorf("cap %d: %v", c, err)
					return
				}
				if res.Matches != want {
					t.Errorf("cap %d: %d matches, want %d", c, res.Matches, want)
				}
				if h := high.Load(); h > int32(c) {
					t.Errorf("cap %d: %d workers inside the run at once", c, h)
				}
				if res.Workers != c || len(res.PerWorkerNodes) != c {
					t.Errorf("cap %d: reported %d workers, %d seats", c, res.Workers, len(res.PerWorkerNodes))
				}
			}(c)
		}
		wg.Wait()
	})

	t.Run("late run starts at the next unit boundary", func(t *testing.T) {
		// A wedge's matches sit at its centre, so the heaviest roots,
		// dealt first, hold the most of them.
		pl := compile(t, pattern.StarPattern(2), plan.ModeLIGHT)
		want := sequentialCount(t, g, pl)
		started := make(chan struct{})
		var once sync.Once
		var lateStarted atomic.Bool
		// The filling run's matches before the late run has one, and after.
		var before, after atomic.Uint64
		type outcome struct {
			res Result
			err error
		}
		filling := make(chan outcome, 1)
		go func() {
			res, err := RunJobs(ctx, Options{Workers: w, Pool: pool}, []Job{{Graph: g, Plan: pl, Visit: func([]graph.VertexID) bool {
				once.Do(func() { close(started) })
				if lateStarted.Load() {
					after.Add(1)
				} else if before.Add(1)%16 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				return true
			}}})
			filling <- outcome{res, err}
		}()
		<-started
		// Let every worker of the pool get inside the filling run first.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			pool.mu.Lock()
			full := len(pool.runs) == 1 && pool.runs[0].inside == w
			pool.mu.Unlock()
			if full {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the filling run never had every worker inside")
			}
		}
		res, err := RunJobs(ctx, Options{Workers: 1, Pool: pool}, []Job{{Graph: g, Plan: pl, Visit: func([]graph.VertexID) bool {
			lateStarted.Store(true)
			return true
		}}})
		if err != nil || res.Matches != want {
			t.Fatalf("late run: %d matches, err %v; want %d", res.Matches, err, want)
		}
		o := <-filling
		if o.err != nil || o.res.Matches != want {
			t.Fatalf("filling run: %d matches, err %v; want %d", o.res.Matches, o.err, want)
		}
		// A late run that waited for the filling run to run dry would
		// overlap only its light tail.
		if 2*after.Load() < want {
			t.Fatalf("only %d of the filling run's %d matches came after the late run started", after.Load(), want)
		}
	})
}
