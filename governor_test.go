package light

import (
	"errors"
	"path/filepath"
	"regexp"
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
	g := completeGraph(6)
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

// TestMemoryBudgetIsACeiling: a memory budget never lets a run's arenas
// reserve past it, and never changes what a run that finishes computes.
// The graph pads a marked P1 query with isolated vertices, so a mark's
// |V|/64 + 1 words outweigh a worker's buffers. A budget that funds W
// workers' buffers and marks runs W workers with the unbudgeted
// counters; one below a single buffer stops with ErrMemoryBudget; every
// budget between gives the exact count or ErrMemoryBudget. Each budget
// is set per run and, separately, as a Governor's shared budget, which
// holds nothing once its runs return.
func TestMemoryBudgetIsACeiling(t *testing.T) {
	base := GenerateBarabasiAlbert(1500, 5, 7)
	var edges [][2]VertexID
	for u := 0; u < base.NumVertices(); u++ {
		for _, v := range base.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				edges = append(edges, [2]VertexID{VertexID(u), v})
			}
		}
	}
	g := NewGraph(base.NumVertices()+50000, edges)
	p, err := PatternByName("P1")
	if err != nil {
		t.Fatal(err)
	}
	if ex, err := Explain(g, p, Options{}); err != nil || strings.Count(ex, "marks {") != 1 ||
		!regexp.MustCompile(`marks \{u\d+\}`).MatchString(ex) {
		t.Fatalf("the P1 plan does not mark exactly one operand (err %v):\n%s", err, ex)
	}
	const workers = 2
	free, err := Count(g, p, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	want := reportCounters(free.Report)
	buffer := int64(g.MaxDegree()) * 4
	marks := int64(g.NumVertices()/64+1) * 8
	fits := workers * (int64(p.NumVertices()+1)*buffer + marks)
	runs := map[string]func(budget int64) (Result, *Governor, error){
		"per-run": func(budget int64) (Result, *Governor, error) {
			res, err := Count(g, p, Options{Workers: workers, MemoryBudget: budget})
			return res, nil, err
		},
		"governor": func(budget int64) (Result, *Governor, error) {
			gov := NewGovernor(GovernorConfig{Slots: workers, MemoryBudget: budget})
			res, err := Count(g, p, Options{Workers: workers, Governor: gov})
			return res, gov, err
		},
	}
	for name, run := range runs {
		check := func(budget int64) (Result, error) {
			res, gov, err := run(budget)
			if err != nil && !errors.Is(err, ErrMemoryBudget) {
				t.Fatalf("%s budget %d: %v", name, budget, err)
			}
			if err == nil && res.Matches != free.Matches {
				t.Fatalf("%s budget %d: count %d with no error, want %d", name, budget, res.Matches, free.Matches)
			}
			if res.CandidateMemoryBytes > budget {
				t.Fatalf("%s budget %d: arenas hold %d bytes", name, budget, res.CandidateMemoryBytes)
			}
			if gov != nil && gov.MemoryInUse() != 0 {
				t.Fatalf("%s budget %d: governor holds %d bytes after the run", name, budget, gov.MemoryInUse())
			}
			return res, err
		}
		res, err := check(fits)
		if err != nil {
			t.Fatalf("%s budget %d funds %d workers' buffers and marks: %v", name, fits, workers, err)
		}
		got := reportCounters(res.Report)
		if res.Report.Workers != workers || got["matches"] != want["matches"] ||
			got["nodes"] != want["nodes"] || got["elements"] != want["elements"] {
			t.Fatalf("%s budget %d: %d workers, counters %v; unbudgeted %v", name, fits, res.Report.Workers, got, want)
		}
		if _, err := check(buffer - 1); !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("%s budget %d, under one buffer: err %v, want ErrMemoryBudget", name, buffer-1, err)
		}
		for k := int64(0); k <= 8; k++ {
			check(buffer + k*(fits-buffer)/8)
		}
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

// TestGovernorBudgetUnderChurn: a governed run under a memory budget
// that funds its four workers runs on the Governor's shared pool beside
// two churn queries that keep every other worker busy — all of them
// counting exactly, and the budgeted runs leaving no run place behind.
func TestGovernorBudgetUnderChurn(t *testing.T) {
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
		res, err := Count(g, p, Options{Workers: 4, Governor: gov, MemoryBudget: 4 * perWorker})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != ref.Matches || res.CandidateMemoryBytes > 4*perWorker {
			t.Fatalf("budgeted run: count %d, want %d; %d arena bytes under a %d budget",
				res.Matches, ref.Matches, res.CandidateMemoryBytes, 4*perWorker)
		}
	}
	close(stop)
	wg.Wait()
	if gov.ActiveQueries() != 0 {
		t.Fatalf("ActiveQueries = %d after all runs", gov.ActiveQueries())
	}
}
