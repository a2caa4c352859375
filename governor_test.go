package light

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOptionsValidation is the satellite table test: every invalid
// Options field is rejected with an error naming the field, at the
// validation choke point — before any worker, arena, or file exists.
func TestOptionsValidation(t *testing.T) {
	g := GenerateComplete(6)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		want string // substring the error must carry
	}{
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"negative time limit", Options{TimeLimit: -time.Second}, "TimeLimit"},
		{"negative checkpoint interval", Options{CheckpointInterval: -time.Second}, "CheckpointInterval"},
		{"negative memory budget", Options{MemoryBudget: -1}, "MemoryBudget"},
		{"negative admission timeout", Options{AdmissionTimeout: -time.Second}, "AdmissionTimeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Count(g, p, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want error naming %s", err, c.want)
			}
			// The same rejection must protect the enumeration entry.
			if _, err := Enumerate(g, p, c.opts, func([]VertexID) bool { return true }); err == nil {
				t.Fatalf("Enumerate accepted invalid %s", c.name)
			}
		})
	}
	if _, err := Count(g, p, Options{}); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
}

// TestGovernorSingleQueryParity: running under an uncontended Governor
// must not change a single deterministic counter relative to an
// ungoverned run — the governor is observability plus admission, not a
// different engine.
func TestGovernorSingleQueryParity(t *testing.T) {
	g := GenerateBarabasiAlbert(500, 6, 11)
	p, err := PatternByName("P2")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Count(g, p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{Slots: 4})
	governed, err := Count(g, p, Options{Workers: 2, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if governed.Matches != plain.Matches || governed.Nodes != plain.Nodes ||
		governed.Intersections != plain.Intersections {
		t.Fatalf("governed run diverged: matches %d/%d nodes %d/%d intersections %d/%d",
			governed.Matches, plain.Matches, governed.Nodes, plain.Nodes,
			governed.Intersections, plain.Intersections)
	}
	r := governed.Report
	if r.SlotsGranted != 2 {
		t.Fatalf("SlotsGranted = %d, want 2", r.SlotsGranted)
	}
	if len(r.DegradationEvents) != 0 {
		t.Fatalf("uncontended run reported degradations: %v", r.DegradationEvents)
	}
	if gov.ActiveQueries() != 0 {
		t.Fatalf("admission leaked: ActiveQueries = %d after run", gov.ActiveQueries())
	}
}

// TestMemoryBudgetDegradesBeforeErroring walks the first rung of the
// ladder end-to-end: a budget one byte short of a single rounded arena
// slab forces exact-size slab grows (visible in the RunReport) while
// the count stays exact. Every worker that allocates at all takes the
// rung, so the outcome does not depend on how many of the four get to
// claim a chunk before the roots run out.
func TestMemoryBudgetDegradesBeforeErroring(t *testing.T) {
	g := GenerateBarabasiAlbert(8000, 8, 13)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	free, err := Count(g, p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const slab = 256 << 10 // arena's minimum slab, what an unpressed grow rounds up to
	if free.CandidateMemoryBytes < slab {
		t.Fatalf("unbudgeted run reports %d arena bytes, under one slab", free.CandidateMemoryBytes)
	}
	res, err := Count(g, p, Options{Workers: 4, MemoryBudget: slab - 1})
	if err != nil {
		t.Fatalf("a budget with room for exact-size slabs must degrade, not fail: %v", err)
	}
	if res.Matches != free.Matches {
		t.Fatalf("count %d under budget, want %d", res.Matches, free.Matches)
	}
	if len(res.Report.DegradationEvents) == 0 {
		t.Fatalf("no degradation events at a budget under one rounded slab (memory %d)", res.CandidateMemoryBytes)
	}
	if res.CandidateMemoryBytes >= slab {
		t.Fatalf("budgeted run used %d bytes, over its %d budget", res.CandidateMemoryBytes, slab-1)
	}
}

// TestMemoryBudgetShedsWorkers: a budget with room for only part of
// the requested pool sheds workers before spawning them — observable,
// exact, and within budget.
func TestMemoryBudgetShedsWorkers(t *testing.T) {
	g := GenerateBarabasiAlbert(600, 5, 7)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per-worker tight footprint is (n+1)·d_max·4; fund two workers
	// with a little slack and ask for four.
	perWorker := int64(p.NumVertices()+1) * int64(g.MaxDegree()) * 4
	res, err := Count(g, p, Options{Workers: 4, MemoryBudget: 2*perWorker + perWorker/2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != ref.Matches {
		t.Fatalf("count %d after shedding, want %d", res.Matches, ref.Matches)
	}
	shed := false
	for _, ev := range res.Report.DegradationEvents {
		if strings.Contains(ev, "shed workers") {
			shed = true
		}
	}
	if !shed {
		t.Fatalf("no worker-shed degradation event: %v", res.Report.DegradationEvents)
	}
	if res.Report.Workers > 2 {
		t.Fatalf("ran %d workers on a 2-worker budget", res.Report.Workers)
	}
}

// TestMemoryBudgetHardStopResumes: a budget too small for even one
// worker hard-stops with ErrMemoryBudget but still writes a valid
// checkpoint; resuming without the budget reaches the exact reference
// count — the acceptance criterion's end-to-end path.
func TestMemoryBudgetHardStopResumes(t *testing.T) {
	g := GenerateBarabasiAlbert(600, 5, 7)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "budget.ckpt")
	_, err = Count(g, p, Options{Workers: 2, MemoryBudget: 64, CheckpointPath: ckpt, CheckpointInterval: time.Hour})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	res, err := Count(g, p, Options{Workers: 2, ResumeFrom: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != ref.Matches {
		t.Fatalf("resumed count %d, want %d", res.Matches, ref.Matches)
	}
}

// TestAdmissionOverloaded: with the governor's only slot held by a
// blocked run, a second run's admission deadline expires into
// ErrOverloaded without doing any work.
func TestAdmissionOverloaded(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 5, 3)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{Slots: 1})
	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := Enumerate(g, p, Options{Governor: gov}, func([]VertexID) bool {
			once.Do(func() { close(started) })
			<-hold
			return true
		})
		if err != nil {
			t.Errorf("holder run failed: %v", err)
		}
	}()
	<-started
	_, err = Count(g, p, Options{Governor: gov, AdmissionTimeout: 30 * time.Millisecond})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if gov.Timeouts() != 1 {
		t.Fatalf("governor Timeouts = %d, want 1", gov.Timeouts())
	}
	close(hold)
	wg.Wait()
}

// TestStallWatchdogCancels: a visitor that stops returning trips the
// watchdog, which records a diagnostic dump and — with CancelOnStall —
// cancels the run with ErrStalled.
func TestStallWatchdogCancels(t *testing.T) {
	g := GenerateBarabasiAlbert(800, 6, 17)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{
		Slots:         2,
		StallInterval: 10 * time.Millisecond,
		StallPatience: 3,
		CancelOnStall: true,
	})
	var stalled atomic.Bool
	res, err := Enumerate(g, p, Options{Workers: 2, Governor: gov}, func([]VertexID) bool {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(400 * time.Millisecond) // wedge one worker well past patience
		}
		return true
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	r := res.Report
	if r.WatchdogStalls == 0 {
		t.Fatal("no watchdog stalls recorded")
	}
	if !strings.Contains(r.StallDump, "stall watchdog: worker") || !strings.Contains(r.StallDump, "goroutine") {
		t.Fatalf("stall dump missing diagnostics:\n%.400s", r.StallDump)
	}
}

// TestStallWatchdogObservesWithoutCancel: without CancelOnStall the
// stall is recorded but the run completes exactly once the worker
// resumes.
func TestStallWatchdogObservesWithoutCancel(t *testing.T) {
	g := GenerateBarabasiAlbert(500, 5, 19)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{
		Slots:         2,
		StallInterval: 10 * time.Millisecond,
		StallPatience: 3,
	})
	var total atomic.Uint64
	var stalled atomic.Bool
	res, err := Enumerate(g, p, Options{Workers: 2, Governor: gov}, func([]VertexID) bool {
		total.Add(1)
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(150 * time.Millisecond)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != ref.Matches || total.Load() != ref.Matches {
		t.Fatalf("count %d (visited %d), want %d", res.Matches, total.Load(), ref.Matches)
	}
	if res.Report.WatchdogStalls == 0 {
		t.Fatal("stall not recorded")
	}
	for _, ev := range res.Report.DegradationEvents {
		if strings.Contains(ev, "stall") {
			return
		}
	}
	t.Fatalf("no stall degradation event: %v", res.Report.DegradationEvents)
}

// TestGovernorLadderCapUnderChurn: a governed run whose memory budget
// funds about one worker has its cap cut by the degradation ladder, and
// runs on the Governor's shared pool beside two churn queries that
// keep every other worker busy — all of them counting exactly, and the
// capped run reporting the ladder's cap.
func TestGovernorLadderCapUnderChurn(t *testing.T) {
	g := GenerateBarabasiAlbert(800, 6, 7)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{Slots: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := Count(g, p, Options{Workers: 4, Governor: gov})
				if err != nil {
					t.Errorf("churn query: %v", err)
					return
				}
				if res.Matches != ref.Matches {
					t.Errorf("churn query count %d, want %d", res.Matches, ref.Matches)
					return
				}
			}
		}()
	}
	perWorker := int64(p.NumVertices()+1) * int64(g.MaxDegree()) * 4
	for i := 0; i < 3; i++ {
		res, err := Count(g, p, Options{Workers: 4, Governor: gov, MemoryBudget: perWorker + perWorker/2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != ref.Matches {
			t.Fatalf("ladder-capped run: count %d, want %d", res.Matches, ref.Matches)
		}
		if res.Report.Workers != 1 || len(res.Report.DegradationEvents) == 0 ||
			!strings.Contains(res.Report.DegradationEvents[0], "shed workers 4 -> 1") {
			t.Fatalf("ladder-capped run: %d workers, degradations %v; want the cap cut 4 -> 1", res.Report.Workers, res.Report.DegradationEvents)
		}
	}
	close(stop)
	wg.Wait()
	if gov.ActiveQueries() != 0 {
		t.Fatalf("ActiveQueries = %d after all runs", gov.ActiveQueries())
	}
}
