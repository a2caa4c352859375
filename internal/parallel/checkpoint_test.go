package parallel

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"light/internal/delta"
	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/lanes"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// interruptResume interrupts a checkpointed run every stopAfter matches
// (via the visitor's early-stop path — equivalent to a kill between
// checkpoint writes) and resumes it from the file until it completes,
// asserting the final total matches an uninterrupted sequential run.
func interruptResume(t *testing.T, g *graph.Graph, pl *plan.Plan, workers int, stopAfter uint64) {
	t.Helper()
	want := sequentialCount(t, g, pl)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	opts := Options{
		Workers:   workers,
		ChunkSize: 16,
		// Only the final on-stop snapshot is written; the interrupt point
		// is controlled entirely by the visitor.
		Checkpoint: &CheckpointOptions{Path: path, Interval: time.Hour},
	}
	var res Result
	var err error
	interruptions := 0
	for attempt := 0; ; attempt++ {
		if attempt > 200 {
			t.Fatal("no forward progress across 200 interrupted runs")
		}
		runOpts := opts
		if attempt > 0 {
			ck, lerr := supervise.LoadCheckpoint(path)
			if lerr != nil {
				t.Fatalf("attempt %d: %v", attempt, lerr)
			}
			runOpts.Resume = ck
		}
		// Commit granularity is one chunk: if a single chunk holds more
		// than stopAfter matches, a fixed budget would re-kill inside it
		// forever. Growing the budget models each retry living longer and
		// guarantees convergence.
		budget := stopAfter
		if attempt < 40 {
			budget <<= uint(attempt / 4)
		} else {
			budget = 1 << 40
		}
		var seen atomic.Uint64
		res, err = Run(g, pl, runOpts, func(m []graph.VertexID) bool {
			return seen.Add(1) < budget
		})
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if !res.Stopped {
			break
		}
		interruptions++
	}
	if res.Matches != want {
		t.Fatalf("resumed total %d, uninterrupted total %d (after %d interruptions)",
			res.Matches, want, interruptions)
	}
	if interruptions == 0 {
		t.Fatalf("run was never interrupted (stopAfter=%d too large for this workload)", stopAfter)
	}
	// One more resume from the Complete checkpoint must return the full
	// total immediately with no further enumeration.
	ck, lerr := supervise.LoadCheckpoint(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if !ck.Complete {
		t.Fatal("final checkpoint not marked Complete")
	}
	final := opts
	final.Resume = ck
	res2, err := Run(g, pl, final, func(m []graph.VertexID) bool {
		t.Error("resume of a Complete checkpoint re-enumerated matches")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matches != want {
		t.Fatalf("complete-checkpoint resume returned %d, want %d", res2.Matches, want)
	}
}

// TestKillAndResumeExactCounts is the integration guarantee: kill-and-
// resume cycles converge to exactly the uninterrupted total, across
// pattern/dataset pairs, at two and four workers (where the guided
// chunks of a resumed run start again at one root).
func TestKillAndResumeExactCounts(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		p         *pattern.Pattern
		stopAfter uint64
	}{
		{"triangle-ba", gen.BarabasiAlbert(500, 6, 11), pattern.Triangle(), 300},
		{"p4-rmat", gen.RMAT(9, 6, 5), pattern.P4(), 500},
		{"clique4-ba", gen.BarabasiAlbert(300, 8, 2), pattern.Clique(4), 200},
	}
	t.Run("WorkStealing", func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				pl := compile(t, tc.p, plan.ModeLIGHT)
				for _, workers := range []int{2, 4} {
					interruptResume(t, tc.g, pl, workers, tc.stopAfter)
				}
			})
		}
	})
}

// TestCheckpointFingerprintMismatch: a checkpoint from one (graph,
// pattern) pair must refuse to resume any other.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 3)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	var seen atomic.Uint64
	_, err := Run(g, pl, Options{
		Workers:    2,
		Checkpoint: &CheckpointOptions{Path: path, Interval: time.Hour},
	}, func(m []graph.VertexID) bool { return seen.Add(1) < 50 })
	if err != nil {
		t.Fatal(err)
	}
	ck, err := supervise.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	otherPl := compile(t, pattern.P4(), plan.ModeLIGHT)
	if _, err := Run(g, otherPl, Options{Workers: 2, Resume: ck}, nil); err == nil {
		t.Fatal("resume with a different pattern accepted")
	}
	otherG := gen.BarabasiAlbert(301, 5, 3)
	if _, err := Run(otherG, pl, Options{Workers: 2, Resume: ck}, nil); err == nil {
		t.Fatal("resume with a different graph accepted")
	}
}

// TestCheckpointOfCompletedRun: an uninterrupted checkpointed run
// writes a Complete checkpoint whose base equals the full count.
func TestCheckpointOfCompletedRun(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 9)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	want := sequentialCount(t, g, pl)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	res, err := Run(g, pl, Options{
		Workers:    4,
		Checkpoint: &CheckpointOptions{Path: path, Interval: time.Hour},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("checkpointed run counted %d, want %d", res.Matches, want)
	}
	ck, err := supervise.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Complete || ck.Base.Matches != want {
		t.Fatalf("final checkpoint: complete=%v matches=%d, want complete with %d", ck.Complete, ck.Base.Matches, want)
	}
}

// TestCheckpointRejectsLanes: a lane job can neither checkpoint nor
// resume; RunJobs refuses it before any worker starts.
func TestCheckpointRejectsLanes(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 4)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	set, err := lanes.NewSet(g.NumVertices(), []lanes.Spec{{}, {MinDegree: 3}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{View: delta.NewView(g, nil), Plan: pl, Lanes: set}}
	for name, opts := range map[string]Options{
		"checkpoint": {Checkpoint: &CheckpointOptions{Path: filepath.Join(t.TempDir(), "state.ckpt")}},
		"resume":     {Resume: &supervise.Checkpoint{Fingerprint: supervise.Fingerprint(g, pl)}},
	} {
		if _, err := RunJobs(context.Background(), opts, jobs); err == nil {
			t.Errorf("%s of a lane job accepted", name)
		}
	}
}

func TestMergeRanges(t *testing.T) {
	rr := func(lo, hi uint32) supervise.RootRange { return supervise.RootRange{Lo: lo, Hi: hi} }
	got := mergeRanges([]supervise.RootRange{rr(10, 20), rr(0, 5), rr(18, 25), rr(5, 7), rr(30, 31)})
	want := []supervise.RootRange{rr(0, 7), rr(10, 25), rr(30, 31)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if mergeRanges(nil) != nil {
		t.Fatal("empty input must merge to nil")
	}
}

func TestPendingRoots(t *testing.T) {
	rr := func(lo, hi uint32) supervise.RootRange { return supervise.RootRange{Lo: lo, Hi: hi} }
	got := pendingRoots(10, []supervise.RootRange{rr(2, 4), rr(7, 9)})
	want := []graph.VertexID{9, 6, 5, 4, 1, 0} // heaviest (highest id) first
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if got := pendingRoots(5, nil); len(got) != 5 {
		t.Fatalf("no checkpoint: want all 5 roots, got %v", got)
	}
	if got := pendingRoots(5, []supervise.RootRange{rr(0, 5)}); len(got) != 0 {
		t.Fatalf("fully covered: want none, got %v", got)
	}
	if got := pendingRoots(5, []supervise.RootRange{rr(3, 9)}); len(got) != 3 || got[0] != 2 {
		t.Fatalf("range past n: want [2 1 0], got %v", got)
	}
}

// TestAppendRootRangesDescending: the pool deals roots in descending id
// order, so a committed chunk of consecutive descending ids must become
// one range, not one range per root; holes left by a resume still split.
func TestAppendRootRangesDescending(t *testing.T) {
	rr := func(lo, hi uint32) supervise.RootRange { return supervise.RootRange{Lo: lo, Hi: hi} }
	cases := []struct {
		roots []graph.VertexID
		want  []supervise.RootRange
	}{
		{[]graph.VertexID{9, 8, 7, 6}, []supervise.RootRange{rr(6, 10)}},
		{[]graph.VertexID{9, 6, 5, 4, 1, 0}, []supervise.RootRange{rr(9, 10), rr(4, 7), rr(0, 2)}},
		{[]graph.VertexID{3, 4, 5, 2, 1}, []supervise.RootRange{rr(3, 6), rr(1, 3)}},
		{[]graph.VertexID{7}, []supervise.RootRange{rr(7, 8)}},
	}
	for _, tc := range cases {
		l := newLedger(tc.roots, 0, engine.Result{}, nil)
		l.appendRootRanges(0, int64(len(tc.roots)))
		if len(l.done) != len(tc.want) {
			t.Fatalf("roots %v: got %v, want %v", tc.roots, l.done, tc.want)
		}
		for i := range tc.want {
			if l.done[i] != tc.want[i] {
				t.Fatalf("roots %v: got %v, want %v", tc.roots, l.done, tc.want)
			}
		}
	}
}
