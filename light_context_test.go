package light

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCountContextDeadline(t *testing.T) {
	g := completeGraph(150)
	p, _ := PatternByName("clique5")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		res, err := CountContext(ctx, g, p, Options{Workers: workers})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want DeadlineExceeded", workers, err)
		}
		if !res.Stopped {
			t.Fatalf("workers=%d: deadline-stopped run must report Stopped", workers)
		}
	}
}

func TestEnumerateContextCancelFromVisitor(t *testing.T) {
	g := completeGraph(150)
	p, _ := PatternByName("clique4")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Uint64
		res, err := EnumerateContext(ctx, g, p, Options{Workers: workers}, func(m []VertexID) bool {
			if seen.Add(1) == 10 {
				cancel()
			}
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if !res.Stopped || res.Matches < 10 {
			t.Fatalf("workers=%d: partial result lost: stopped=%v matches=%d", workers, res.Stopped, res.Matches)
		}
	}
}

func TestEnumerateContextRequiresVisitor(t *testing.T) {
	g := completeGraph(5)
	p, _ := PatternByName("triangle")
	if _, err := EnumerateContext(context.Background(), g, p, Options{}, nil); err == nil {
		t.Fatal("nil visitor accepted")
	}
}

// TestVisitorPanicBecomesError: both the sequential and the parallel
// path must convert a visitor panic into an error instead of crashing.
func TestVisitorPanicBecomesError(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 5, 2)
	p, _ := PatternByName("triangle")
	for _, workers := range []int{1, 4} {
		var seen atomic.Uint64
		_, err := Enumerate(g, p, Options{Workers: workers}, func(m []VertexID) bool {
			if seen.Add(1) == 3 {
				panic("user callback bug")
			}
			return true
		})
		if err == nil || !strings.Contains(err.Error(), "user callback bug") {
			t.Fatalf("workers=%d: err = %v, want the recovered panic", workers, err)
		}
	}
}

// TestCheckpointResumePublicAPI drives checkpoint/resume purely through
// light.Options, including the Workers<=1 case that silently routes
// through the parallel scheduler.
func TestCheckpointResumePublicAPI(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 6, 4)
	p, _ := PatternByName("triangle")
	full, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "state.ckpt")
		opts := Options{
			Workers:            workers,
			CheckpointPath:     path,
			CheckpointInterval: time.Hour,
		}
		var res Result
		budget := uint64(150)
		for attempt := 0; ; attempt++ {
			if attempt > 60 {
				t.Fatalf("workers=%d: no convergence", workers)
			}
			runOpts := opts
			if attempt > 0 {
				runOpts.ResumeFrom = path
			}
			var seen atomic.Uint64
			res, err = Enumerate(g, p, runOpts, func(m []VertexID) bool {
				return seen.Add(1) < budget
			})
			if err != nil {
				t.Fatalf("workers=%d attempt %d: %v", workers, attempt, err)
			}
			if !res.Stopped {
				break
			}
			budget += budget / 2
		}
		if res.Matches != full.Matches {
			t.Fatalf("workers=%d: resumed total %d, want %d", workers, res.Matches, full.Matches)
		}
	}
}

// TestResumeRejectsOtherGraph: a checkpoint binds the graph's content,
// not just its shape. C6 and two disjoint triangles share N, M and
// d_max, so resuming C6's complete zero-match checkpoint on the
// triangles must fail instead of returning C6's count.
func TestResumeRejectsOtherGraph(t *testing.T) {
	cycle := NewGraph(6, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	triangles := NewGraph(6, [][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	p, _ := PatternByName("triangle")
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if _, err := Count(cycle, p, Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	fresh, err := Count(triangles, p, Options{})
	if err != nil || fresh.Matches != 2 {
		t.Fatalf("fresh count on two triangles: %d, %v; want 2", fresh.Matches, err)
	}
	if res, err := Count(triangles, p, Options{ResumeFrom: path}); err == nil {
		t.Fatalf("resume on another graph accepted: %d matches, a fresh count gives %d", res.Matches, fresh.Matches)
	}
}

func TestResumeFromMissingFile(t *testing.T) {
	g := completeGraph(6)
	p, _ := PatternByName("triangle")
	if _, err := Count(g, p, Options{ResumeFrom: filepath.Join(t.TempDir(), "nope.ckpt")}); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// path16 is a 16-vertex path built inline: its plan search compiles
// every connected order (tens of thousands), which costs far more than
// its run on a 30-vertex graph.
func path16(t *testing.T) *Pattern {
	t.Helper()
	edges := make([][2]int, 15)
	for i := range edges {
		edges[i] = [2]int{i, i + 1}
	}
	p, err := NewPattern("path16", 16, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCancelledContextSkipsPlanning: a context that is already done
// stops CountContext, CountBatchContext and CountDeltaContext before the
// order search, so no run starts (no report) and the call returns at
// once instead of after the search.
func TestCancelledContextSkipsPlanning(t *testing.T) {
	g := GenerateBarabasiAlbert(30, 2, 1)
	p := path16(t)
	from := g.Snapshot()
	if _, err := g.ApplyEdges([][2]VertexID{{0, 29}}, nil); err != nil {
		t.Fatal(err)
	}
	to := g.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := CountContext(ctx, g, p, Options{})
	if !errors.Is(err, context.Canceled) || res.Report != nil {
		t.Errorf("CountContext: err %v, report %v; want Canceled before any run", err, res.Report != nil)
	}
	if _, err := CountBatchContext(ctx, g, []BatchQuery{{Pattern: p}}, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CountBatchContext: err %v, want Canceled", err)
	}
	if _, err := CountDeltaContext(ctx, g, p, from, to, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CountDeltaContext: err %v, want Canceled", err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("three cancelled calls took %v: the order search ran", took)
	}
}

// TestPlanSearchHonoursDeadline: the order search polls the run's
// context, so a 100 ms deadline bounds a query whose plan search alone
// costs longer (the search runs in full without a deadline, as Explain
// does, to measure it).
func TestPlanSearchHonoursDeadline(t *testing.T) {
	g := GenerateBarabasiAlbert(30, 2, 1)
	p := path16(t)
	const deadline = 100 * time.Millisecond
	start := time.Now()
	if _, err := Explain(g, p, Options{}); err != nil {
		t.Fatal(err)
	}
	search := time.Since(start)
	if search < 3*deadline/2 {
		t.Skipf("the order search took %v, too little to outlast a %v deadline", search, deadline)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start = time.Now()
	_, err := CountContext(ctx, g, p, Options{})
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if took > (deadline+search)/2 {
		t.Errorf("CountContext returned after %v under a %v deadline (the whole search takes %v)", took, deadline, search)
	}
}
