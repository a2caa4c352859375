//go:build faultinject

package parallel

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"light/internal/faultpoint"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// chaosRun executes a pool run with the current fault registry
// and a watchdog: a deadlocked pool fails the test rather than hanging
// the suite.
func chaosRun(t *testing.T, g *graph.Graph, pl *plan.Plan, opts Options, visit func(m []graph.VertexID) bool) (Result, error) {
	t.Helper()
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(g, pl, opts, visit)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatal("pool deadlocked under injected fault")
		return Result{}, nil
	}
}

func chaosFixture(t *testing.T) (*graph.Graph, *plan.Plan, uint64) {
	t.Helper()
	g := gen.BarabasiAlbert(400, 6, 21)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	return g, pl, sequentialCount(t, g, pl)
}

// TestChaosPanicAtEachPoint injects a one-shot panic at every scheduler
// faultpoint in turn: each must surface as a *supervise.PanicError with
// all workers exited cleanly — never a crash or deadlock.
func TestChaosPanicAtEachPoint(t *testing.T) {
	g, pl, _ := chaosFixture(t)
	points := []string{
		faultpoint.PointWorkerStart,
		faultpoint.PointCheckpointWrite,
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer faultpoint.Reset()
			faultpoint.Set(point, faultpoint.PanicOnce("chaos: "+point))
			opts := Options{Workers: 4, ChunkSize: 8}
			if point == faultpoint.PointCheckpointWrite {
				opts.Checkpoint = &CheckpointOptions{
					Path:     filepath.Join(t.TempDir(), "state.ckpt"),
					Interval: time.Hour,
				}
			}
			_, err := chaosRun(t, g, pl, opts, nil)
			var pe *supervise.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *supervise.PanicError", err)
			}
		})
	}
}

// TestChaosWorkerStartFailure: an injected error at worker start must
// abort the run with that error and no deadlock of the remaining
// workers.
func TestChaosWorkerStartFailure(t *testing.T) {
	defer faultpoint.Reset()
	g, pl, _ := chaosFixture(t)
	injected := errors.New("injected start failure")
	faultpoint.Set(faultpoint.PointWorkerStart, faultpoint.FailTimes(2, injected))
	_, err := chaosRun(t, g, pl, Options{Workers: 4, ChunkSize: 8}, nil)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected start failure", err)
	}
}

// TestChaosCheckpointWriteFailure: when every checkpoint write fails,
// the run still finishes and surfaces the write error; when only the
// periodic writes fail, the final checkpoint supersedes them and the
// file stays usable.
func TestChaosCheckpointWriteFailure(t *testing.T) {
	defer faultpoint.Reset()
	g, pl, want := chaosFixture(t)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	injected := errors.New("injected write failure")
	faultpoint.Set(faultpoint.PointCheckpointWrite, faultpoint.FailTimes(1<<30, injected))
	res, err := chaosRun(t, g, pl, Options{
		Workers:    4,
		Checkpoint: &CheckpointOptions{Path: path, Interval: time.Hour},
	}, nil)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected write failure", err)
	}
	if res.Matches != want {
		t.Fatalf("count %d, want %d (write failures must not lose results)", res.Matches, want)
	}

	// Now let only the first write fail. If the run outlives the first
	// periodic tick, the transient failure lands there and the final
	// write supersedes it: no error, usable Complete checkpoint. (On a
	// machine fast enough to finish before the tick, the transient hits
	// the final write instead — nothing left to assert.)
	faultpoint.Reset()
	transient := errors.New("transient")
	faultpoint.Set(faultpoint.PointCheckpointWrite, faultpoint.FailTimes(1, transient))
	res, err = chaosRun(t, g, pl, Options{
		Workers:    4,
		Checkpoint: &CheckpointOptions{Path: path, Interval: time.Millisecond},
	}, nil)
	if err != nil {
		if !errors.Is(err, transient) {
			t.Fatal(err)
		}
		t.Skip("run finished before the first periodic tick")
	}
	if res.Matches != want {
		t.Fatalf("count %d, want %d", res.Matches, want)
	}
	ck, err := supervise.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable after transient write failure: %v", err)
	}
	if !ck.Complete || ck.Base.Matches != want {
		t.Fatalf("final checkpoint complete=%v matches=%d, want complete with %d", ck.Complete, ck.Base.Matches, want)
	}
}
