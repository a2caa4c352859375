package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

func compile(t *testing.T, p *pattern.Pattern, mode plan.Mode) *plan.Plan {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], mode)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func sequentialCount(t *testing.T, g *graph.Graph, pl *plan.Plan) uint64 {
	t.Helper()
	res, err := engine.New(g, pl, engine.Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func TestParallelMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":   gen.BarabasiAlbert(400, 5, 1),
		"rmat": gen.RMAT(9, 6, 2),
		"star": gen.Star(300), // one hub: all the work under one root
	}
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.P2(), pattern.P4()}
	for gname, g := range graphs {
		for _, p := range pats {
			pl := compile(t, p, plan.ModeLIGHT)
			want := sequentialCount(t, g, pl)
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := Run(g, pl, Options{Workers: workers, ChunkSize: 16}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != want {
					t.Fatalf("%s/%s workers=%d: got %d, want %d",
						gname, p.Name(), workers, res.Matches, want)
				}
			}
		}
	}
}

func TestParallelAllModes(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 9)
	p := pattern.P5()
	for _, mode := range []plan.Mode{plan.ModeSE, plan.ModeLM, plan.ModeMSC, plan.ModeLIGHT} {
		pl := compile(t, p, mode)
		want := sequentialCount(t, g, pl)
		res, err := Run(g, pl, Options{Workers: 6, ChunkSize: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("mode %s: got %d, want %d", mode.Name(), res.Matches, want)
		}
	}
}

func TestParallelVisitor(t *testing.T) {
	g := gen.Complete(10)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	var mu sync.Mutex
	seen := map[[3]graph.VertexID]bool{}
	res, err := Run(g, pl, Options{Workers: 4, ChunkSize: 2}, func(m []graph.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		key := [3]graph.VertexID{m[0], m[1], m[2]}
		if seen[key] {
			t.Errorf("duplicate %v", key)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 120 || len(seen) != 120 {
		t.Fatalf("C(10,3) = 120, got matches=%d seen=%d", res.Matches, len(seen))
	}
}

func TestParallelEarlyStop(t *testing.T) {
	g := gen.Complete(40)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	var mu sync.Mutex
	calls := 0
	res, err := Run(g, pl, Options{Workers: 4, ChunkSize: 1}, func(m []graph.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return calls < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("expected Stopped")
	}
	if res.Matches >= 9880 { // far fewer than the full C(40,3)
		t.Fatalf("early stop ineffective: %d matches", res.Matches)
	}
}

// errLimit is a time-limit sentinel, the kind of cause a caller gives
// the timeout context it bounds a run with (light's Options.TimeLimit).
var errLimit = errors.New("parallel test: time limit")

// runLimited runs pl count-only under a context that times out after
// limit with cause errLimit.
func runLimited(g *graph.Graph, pl *plan.Plan, opts Options, limit time.Duration) (Result, error) {
	ctx, cancel := context.WithTimeoutCause(context.Background(), limit, errLimit)
	defer cancel()
	return RunContext(ctx, g, pl, opts, nil)
}

func TestParallelTimeLimit(t *testing.T) {
	g := gen.Complete(150)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	start := time.Now()
	res, err := runLimited(g, pl, Options{Workers: 4}, 50*time.Millisecond)
	if err != errLimit {
		t.Fatalf("err = %v, want errLimit", err)
	}
	if !res.Stopped {
		t.Fatal("time-limited run must report Stopped")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time limit not enforced promptly: %v", elapsed)
	}
}

func TestTimeLimitSpansChunks(t *testing.T) {
	// Regression: the limit must be absolute across the whole run, not
	// restarted per root chunk. With ChunkSize 1 there are many chunks,
	// each heavy; a per-chunk clock never expired.
	g := gen.Complete(300)
	pl := compile(t, pattern.Clique(4), plan.ModeLIGHT)
	start := time.Now()
	_, err := runLimited(g, pl, Options{Workers: 2, ChunkSize: 1}, 300*time.Millisecond)
	if err != errLimit {
		t.Fatalf("err = %v, want errLimit", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("limit not absolute: ran %v", elapsed)
	}
}

func TestCandidateMemoryScalesWithWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(500, 5, 6)
	pl := compile(t, pattern.P5(), plan.ModeLIGHT)
	res1, err := Run(g, pl, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Run(g, pl, Options{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res4.CandidateMemBytes != 4*res1.CandidateMemBytes {
		t.Fatalf("memory %d with 4 workers, %d with 1 (want 4×)", res4.CandidateMemBytes, res1.CandidateMemBytes)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers < 1 || o.ChunkSize < 1 {
		t.Fatalf("bad defaults: %+v", o)
	}
}

// claimPool is a run holding only what claim reads: one job per entry
// of units, anchored when the count is negative, and a cap of workers.
func claimPool(workers, chunkSize int, units ...int) *run {
	p := &run{opts: Options{Workers: workers, ChunkSize: chunkSize}}
	var end int64
	for _, u := range units {
		var jb Job
		if u < 0 {
			u = -u
			jb.Anchors = make([]engine.Anchor, u)
		}
		p.jobs = append(p.jobs, jb)
		p.state = append(p.state, jobState{start: end, end: end + int64(u)})
		end += int64(u)
	}
	return p
}

// TestClaimGuidedChunks pins the claim rule over several jobs, one of
// them anchored and one empty. Claims come job after job, and never
// cross from one job into the next. Each job's chunks tile its units
// exactly once and in order. An anchored job's chunks hold one anchor
// each. With W > 1 a rooted job's chunks never shrink (only its last may
// be cut short by its units), each stays within the ChunkSize cap and
// max(1, lo/(8W)) of the job's own offset lo, so each job's first
// (heaviest) root goes out alone; a one-worker pool claims full
// ChunkSize chunks.
func TestClaimGuidedChunks(t *testing.T) {
	const chunkCap = 256
	units := []int{5000, -40, 0, 3000}
	for _, w := range []int{1, 2, 4, 8} {
		p := claimPool(w, chunkCap, units...)
		next := make([]int64, len(units))
		prev := make([]int64, len(units))
		lastJob := 0
		for {
			job, lo, hi, ok := p.claim()
			if !ok {
				break
			}
			size, n, anchored := hi-lo, abs(int64(units[job])), units[job] < 0
			if job < lastJob {
				t.Fatalf("W=%d: job %d claimed after job %d", w, job, lastJob)
			}
			lastJob = job
			if lo != next[job] || size < 1 || hi > n {
				t.Fatalf("W=%d job %d: chunk [%d,%d) after cursor %d of %d units", w, job, lo, hi, next[job], n)
			}
			last := hi == n
			switch {
			case anchored && size != 1:
				t.Fatalf("W=%d job %d: anchored chunk [%d,%d) is not one anchor", w, job, lo, hi)
			case anchored:
			case w == 1 && size != chunkCap && !last:
				t.Fatalf("W=1 job %d: chunk [%d,%d) is not ChunkSize %d", job, lo, hi, chunkCap)
			case w > 1 && (size > chunkCap || size > max(1, lo/int64(8*w))):
				t.Fatalf("W=%d job %d: chunk [%d,%d) exceeds min(ChunkSize, max(1, lo/8W))", w, job, lo, hi)
			case size < prev[job] && !last:
				t.Fatalf("W=%d job %d: chunk [%d,%d) shrank from %d", w, job, lo, hi, prev[job])
			}
			prev[job], next[job] = size, hi
		}
		for job, u := range units {
			if next[job] != abs(int64(u)) {
				t.Fatalf("W=%d job %d: chunks stop at %d of %d", w, job, next[job], abs(int64(u)))
			}
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestClaimDealsHeaviestRootFirst: the first root a multi-worker pool
// hands out, alone in its chunk, is the graph's highest-degree vertex.
func TestClaimDealsHeaviestRootFirst(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 8, 4)
	p := claimPool(2, 256, g.NumVertices())
	p.state[0].roots = pendingRoots(g.NumVertices(), nil)
	job, lo, hi, ok := p.claim()
	if !ok || job != 0 || hi-lo != 1 {
		t.Fatalf("first chunk %d:[%d,%d) ok=%v, want one root", job, lo, hi, ok)
	}
	if root := p.state[0].roots[lo]; g.Degree(root) != g.MaxDegree() {
		t.Fatalf("first root %d has degree %d, max is %d", root, g.Degree(root), g.MaxDegree())
	}
}

// TestClaimConcurrentExactlyOnce: eight goroutines racing on the cursor
// (run it under -race) receive every unit of every job exactly once
// between them.
func TestClaimConcurrentExactlyOnce(t *testing.T) {
	p := claimPool(8, 256, 20000, -300, 7000)
	seen := make([]atomic.Int32, p.state[len(p.state)-1].end)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job, lo, hi, ok := p.claim()
				if !ok {
					return
				}
				for u := lo; u < hi; u++ {
					seen[p.state[job].start+u].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for u := range seen {
		if n := seen[u].Load(); n != 1 {
			t.Fatalf("unit %d claimed %d times", u, n)
		}
	}
}

func TestManyWorkersSmallGraph(t *testing.T) {
	// More workers than roots must still terminate and be correct.
	g := gen.Complete(6)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	res, err := Run(g, pl, Options{Workers: 32, ChunkSize: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 20 {
		t.Fatalf("got %d, want 20", res.Matches)
	}
}

// TestStaticRootRangesImbalanced keeps the paper's §VIII-A observation
// without the scheduler it used to justify: naive static partitioning
// of C(π[1]) is badly load-imbalanced on skewed graphs, because
// degree-ordered ids concentrate the heavy hubs in the last range. The
// intrinsic work of each equal-width root range is measured
// deterministically by running it on one sequential engine.
func TestStaticRootRangesImbalanced(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 8, 4)
	pl := compile(t, pattern.P3(), plan.ModeLIGHT)
	workers := 8
	e := engine.New(g, pl, engine.Options{})
	n := g.NumVertices()
	roots := make([]graph.VertexID, n)
	for i := range roots {
		roots[i] = graph.VertexID(i)
	}
	var max, sum uint64
	for w := 0; w < workers; w++ {
		res, err := e.RunRoots(roots[w*n/workers:(w+1)*n/workers], nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Nodes
		if res.Nodes > max {
			max = res.Nodes
		}
	}
	imbalance := float64(max) * float64(workers) / float64(sum)
	t.Logf("static range imbalance (max/mean nodes): %.2f", imbalance)
	if imbalance < 1.5 {
		t.Fatalf("static partitioning unexpectedly balanced (%.2f) — test graph not skewed enough", imbalance)
	}
}

// heaviestRootShare returns the largest share of nodes + elements that a
// single root of g carries for p under the planner's plan and the
// library's default kernel, each root measured alone with one RunRoots
// call.
func heaviestRootShare(t *testing.T, g *graph.Graph, p *pattern.Pattern) float64 {
	t.Helper()
	pl, err := plan.Choose(p, pattern.SymmetryBreaking(p), estimate.Collect(g), plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g, pl, engine.Options{Kernel: intersect.KindHybridBitmap})
	root := make([]graph.VertexID, 1)
	var heaviest, sum uint64
	for v := range g.NumVertices() {
		root[0] = graph.VertexID(v)
		res, err := e.RunRoots(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := res.Nodes + res.Stats.Elements
		sum += w
		heaviest = max(heaviest, w)
	}
	return float64(heaviest) / float64(sum)
}

// TestHeaviestRootShare carries the balance claim the pool rests on now
// that a claimed unit is never split: no single root of the suite's
// yt-s holds more than 1/16 of the work of P2, P4 or P6. Roots go out
// heaviest first in chunks of at most 1/(8W) of the work already dealt
// (run.claim), so with every root under 1/(8W) the last unit a worker
// can be left holding at W = 2 is a small slice of the run. star-chords
// P6, whose hub holds about three quarters of the work, is the cell
// that bound does not cover; its share is logged, not asserted (that
// cell ran no slower without work donation either: DESIGN.md §6).
func TestHeaviestRootShare(t *testing.T) {
	ds, err := gen.ByName("yt-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	yt := ds.Make()
	const bound = 1.0 / 16
	for _, p := range []*pattern.Pattern{pattern.P2(), pattern.P4(), pattern.P6()} {
		share := heaviestRootShare(t, yt, p)
		t.Logf("yt-s %s: heaviest root share %.4f", p.Name(), share)
		if share > bound {
			t.Errorf("yt-s %s: heaviest root holds %.4f of nodes + elements, above 1/16", p.Name(), share)
		}
	}
	t.Logf("star-chords(4000, 24000, 7) P6: heaviest root share %.4f (not asserted)",
		heaviestRootShare(t, gen.StarChords(4000, 24000, 7), pattern.P6()))
}
