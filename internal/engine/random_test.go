package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

type stopFlag struct{ b atomic.Bool }

// randomConnectedPattern is kept as a local alias so the call sites read
// the same; the generator itself now lives in the pattern package where
// the differential harness shares it.
func randomConnectedPattern(rng *rand.Rand, n, extraEdges int) *pattern.Pattern {
	return pattern.RandomConnected(rng, n, extraEdges)
}

// TestRandomPatternsMatchBruteForce is the widest correctness net: random
// patterns × random graphs × random modes × random orders, all compared
// against the independent brute-force matcher.
func TestRandomPatternsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3) // 3..5 pattern vertices
		p := randomConnectedPattern(rng, n, rng.Intn(4))
		var g = gen.ErdosRenyi(20+rng.Intn(20), 40+rng.Intn(80), int64(trial))
		po := pattern.SymmetryBreaking(p)
		want := bruteCount(p, po, g)

		orders := plan.ConnectedOrders(p, po)
		pi := orders[rng.Intn(len(orders))]
		mode := allModes[rng.Intn(len(allModes))]
		pl, err := plan.Compile(p, po, pi, mode)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Even trials count, odd ones walk to the leaves.
		var visit VisitFunc
		if trial%2 == 1 {
			visit = acceptAll
		}
		res, err := New(g, pl, Options{}).Run(visit)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Matches != want {
			t.Fatalf("trial %d: pattern %v mode %s π=%v: got %d, want %d",
				trial, p, mode.Name(), pi, res.Matches, want)
		}
	}
}

// TestRandomPatternsAllModesAgree fuzzes larger graphs where brute force
// is too slow, checking the four engines against each other instead.
func TestRandomPatternsAllModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(2)
		p := randomConnectedPattern(rng, n, rng.Intn(3))
		g := gen.BarabasiAlbert(150+rng.Intn(150), 3+rng.Intn(3), int64(trial))
		po := pattern.SymmetryBreaking(p)
		pi := plan.ConnectedOrders(p, po)[0]
		var want uint64
		for i, mode := range allModes {
			pl, err := plan.Compile(p, po, pi, mode)
			if err != nil {
				t.Fatal(err)
			}
			res, err := New(g, pl, Options{}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Matches
			} else if res.Matches != want {
				t.Fatalf("trial %d mode %s: %d != %d (pattern %v)", trial, mode.Name(), res.Matches, want, p)
			}
		}
	}
}

// TestExternalStopFlag verifies the parallel scheduler's stop channel:
// setting Stop mid-run unwinds without error and flags Stopped.
func TestExternalStopFlag(t *testing.T) {
	g := gen.Complete(60)
	p := pattern.Clique(4)
	po := pattern.SymmetryBreaking(p)
	pl, _ := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	e := New(g, pl, Options{})
	var stop stopFlag
	e.Stop = &stop.b
	n := 0
	res, err := e.Run(func(m []graph.VertexID) bool {
		n++
		if n == 10 {
			stop.b.Store(true)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("expected Stopped via external flag")
	}
	if res.Matches >= 487635 { // full C(60,4)
		t.Fatal("stop flag had no effect")
	}
}
