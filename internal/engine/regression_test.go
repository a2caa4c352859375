package engine

import (
	"testing"
	"time"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestTailCountCancellationLatency pins the fix for the unbounded
// cancellation latency of a count-only run: checkDeadline used to poll
// only when Nodes&8191 == 0, but tailCount advances Nodes in batches, so a
// run whose node counter never lands on the residue ignored Stop
// forever. The construction makes that deterministic: a single-edge
// pattern on a star graph increments Nodes by exactly 2 per root (one
// root MAT + one tail batch of size 1), and the tail poll always
// observes an odd counter — pre-fix, a pre-set Stop flag was never
// seen and the run completed in full.
func TestTailCountCancellationLatency(t *testing.T) {
	const leaves = 30000
	g := gen.Star(leaves)
	p := pattern.Path(2)
	po := pattern.SymmetryBreaking(p)
	// π = (u0, u1) pins the construction: every leaf root contributes one
	// root MAT plus one tail batch of size 1 (the hub), so Nodes is odd at
	// every tail poll.
	pl, err := plan.Compile(p, po, []pattern.Vertex{0, 1}, plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, pl, Options{})
	var stop stopFlag
	stop.b.Store(true) // cancelled before the run even starts
	e.Stop = &stop.b
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("pre-set Stop flag ignored: run completed with %d matches, %d nodes", res.Matches, res.Nodes)
	}
	// The poll cadence is one check per 8192 checkDeadline calls and
	// every call here adds at most 2 nodes, so a cancelled run must
	// unwind within a bounded number of nodes — far below the full
	// enumeration's 2*leaves+1.
	if res.Nodes > 2*8192+2 {
		t.Fatalf("cancelled count-only run expanded %d nodes, want <= %d", res.Nodes, 2*8192+2)
	}
}

// TestRootFilterCancellationLatency pins the RunRoots poll hoist: the
// root loop used to poll only after the Filter guard, so a filter that
// rejects every root spun through the whole candidate set without a
// single checkDeadline call — a pre-set Stop flag was never observed
// and the run completed with Stopped=false. The poll now precedes the
// filter, so the first root iteration sees the flag.
func TestRootFilterCancellationLatency(t *testing.T) {
	g := gen.Star(30000)
	p := pattern.Path(2)
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, []pattern.Vertex{0, 1}, plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	rejectRoots := func(u int, v graph.VertexID) bool { return u != int(pl.Pi[0]) }
	e := New(g, pl, Options{Filter: rejectRoots})
	var stop stopFlag
	stop.b.Store(true) // cancelled before the run even starts
	e.Stop = &stop.b
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("pre-set Stop flag ignored behind an all-rejecting root filter: run completed, %d nodes", res.Nodes)
	}
	if res.Nodes != 0 {
		t.Fatalf("cancelled run expanded %d nodes, want 0", res.Nodes)
	}
}

// TestMatLoopFilterCancellationLatency is the MAT-loop flavor of the
// same hoist: the candidate loop used to run its injectivity, degree,
// and Filter rejects before the poll, so rejected candidates burned no
// checkDeadline calls at all. The construction makes the latency gap
// observable through the 8192-call poll cadence: the filter trips Stop
// on the first tail candidate and rejects everything, so post-fix the
// hub root's 30000 rejected candidates accumulate polls and the run
// unwinds inside that first MAT loop (Nodes == 1). Pre-fix the MAT loop
// contributed zero polls, so only the once-per-root poll advanced the
// cadence and ~8192 further roots expanded before the flag was seen.
func TestMatLoopFilterCancellationLatency(t *testing.T) {
	g := gen.Star(30000) // hub is vertex 0, enumerated first
	p := pattern.Path(2)
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, []pattern.Vertex{0, 1}, plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	var stop stopFlag
	trip := func(u int, v graph.VertexID) bool {
		if u == int(pl.Pi[0]) {
			return true // accept every root; reject (and trip on) tail candidates
		}
		stop.b.Store(true)
		return false
	}
	e := New(g, pl, Options{Filter: trip})
	e.Stop = &stop.b
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("Stop tripped by the tail filter was never observed: run completed, %d nodes", res.Nodes)
	}
	if res.Nodes > 4096 {
		t.Fatalf("cancelled run expanded %d nodes, want the hub root only (pre-fix shape expands ~8192)", res.Nodes)
	}
}

// TestTrailingZeros32Intrinsic pins the math/bits replacement of the
// hand-rolled loop, which spun forever on 0. The watchdog goroutine
// makes the pre-fix hang a clean test failure instead of a test-binary
// timeout.
func TestTrailingZeros32Intrinsic(t *testing.T) {
	done := make(chan int, 1)
	go func() { done <- trailingZeros32(0) }()
	select {
	case got := <-done:
		if got != 32 {
			t.Fatalf("trailingZeros32(0) = %d, want 32", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("trailingZeros32(0) did not return (infinite loop)")
	}
	for i := 0; i < 32; i++ {
		if got := trailingZeros32(1 << uint(i)); got != i {
			t.Fatalf("trailingZeros32(1<<%d) = %d, want %d", i, got, i)
		}
	}
}
