package light

import (
	"context"
	"errors"
	"flag"
	"testing"
	"time"

	"light/internal/gen"
	"light/internal/pattern"
	"light/internal/plan"
)

var crossOrderLJS = flag.Bool("crossorder.ljs", false, "run TestEveryOrderCountsAlikeOnLJS (about a minute on 2 CPUs; scripts/verify.sh sets it)")

// crossOrderSamples are the orders TestEveryOrderCountsAlike runs of
// the two patterns whose every order costs too much for a tier-1 test
// (P4's 60 orders take ~14 s serial on yt-s, P5's 208 over 5 min): the
// ones that ran in under 20 ms (P4) and 110 ms (P5) on a 2-CPU host.
// They start at four (P4) and three (P5) different vertices.
var crossOrderSamples = map[string][][]pattern.Vertex{
	"P4-house": {
		{0, 1, 4, 3, 2}, {0, 3, 1, 4, 2}, {0, 1, 3, 4, 2}, {0, 3, 4, 1, 2}, {0, 4, 3, 1, 2},
		{0, 4, 1, 3, 2}, {1, 0, 3, 4, 2}, {1, 0, 4, 3, 2}, {3, 0, 1, 4, 2}, {4, 0, 1, 3, 2},
		{4, 0, 3, 1, 2}, {1, 0, 2, 4, 3}, {1, 0, 4, 2, 3}, {4, 1, 0, 3, 2}, {0, 1, 4, 2, 3},
		{0, 1, 3, 2, 4}, {0, 3, 1, 2, 4}, {0, 1, 2, 4, 3}, {3, 0, 1, 2, 4},
	},
	"P5-doublesquare": {
		{0, 1, 2, 3, 5, 4}, {2, 0, 1, 3, 4, 5}, {1, 0, 2, 3, 5, 4}, {0, 1, 2, 4, 3, 5},
		{1, 0, 2, 3, 4, 5}, {2, 0, 1, 4, 3, 5}, {2, 0, 1, 3, 5, 4}, {0, 1, 2, 3, 4, 5},
	},
}

// TestEveryOrderCountsAlike is the cross-order oracle. Every connected
// enumeration order is a correct plan, whether or not it respects the
// partial order, and orders differ in what the engine does with the
// symmetry constraints: which are pushed into a COMP and which stay at
// their MAT, which injectivity checks a MAT keeps, which vertices the
// counted tail counts and which candidate sets are reused. So on yt-s
// every connected order of P1–P3, P6 and P7, and the fixed samples of
// P4 and P5 (crossOrderSamples), must give each pattern one count. An
// order that overruns its time limit fails the test too.
func TestEveryOrderCountsAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~330 plans on yt-s")
	}
	st := crossOrderGraph(t, "yt-s")
	for _, p := range pattern.Catalog() {
		orders, ok := crossOrderSamples[p.Name()]
		if !ok {
			orders = plan.ConnectedOrders(p, nil)
		}
		crossOrderCheck(t, st, p, orders, Options{TimeLimit: 2 * time.Second}, false)
	}
}

// TestEveryOrderCountsAlikeOnLJS is the cross-order oracle on lj-s at
// two workers: every connected order of P1–P3, P6 and P7, and those of
// P4's that finish within 2 s each (the others overrun by far, and
// are skipped). Its hubs are larger and denser than yt-s's, where
// collisions and skewed windows live. It runs only when
// -crossorder.ljs is set.
func TestEveryOrderCountsAlikeOnLJS(t *testing.T) {
	if !*crossOrderLJS {
		t.Skip("set -crossorder.ljs to run")
	}
	st := crossOrderGraph(t, "lj-s")
	for _, name := range []string{"P1", "P2", "P3", "P4", "P6", "P7"} {
		p, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		crossOrderCheck(t, st, p, plan.ConnectedOrders(p, nil), Options{Workers: 2, TimeLimit: 2 * time.Second}, name == "P4")
	}
}

func crossOrderGraph(t *testing.T, name string) *snapshotState {
	t.Helper()
	d, err := gen.ByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rebuild(t, newGraph(d.Make())).snap()
}

// crossOrderCheck runs p in each order under opts and requires one
// count. With skipOverruns, an order that hits opts.TimeLimit is left
// out instead of failing the test, but at least one must finish.
func crossOrderCheck(t *testing.T, st *snapshotState, p *pattern.Pattern, orders [][]pattern.Vertex, opts Options, skipOverruns bool) {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	var want uint64
	var first []pattern.Vertex
	finished := 0
	for _, pi := range orders {
		pl, err := plan.Compile(p, po, pi, plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execute(context.Background(), st, pl, opts, nil)
		switch {
		case skipOverruns && errors.Is(err, ErrTimeLimit):
			continue
		case err != nil:
			t.Fatalf("%s π=%v: %v", p.Name(), pi, err)
		}
		if finished++; finished == 1 {
			want, first = res.Matches, pi
		} else if res.Matches != want {
			t.Errorf("%s: π=%v counts %d, π=%v counts %d\n%s", p.Name(), pi, res.Matches, first, want, pl.Explain(st.planStats()))
		}
	}
	if finished == 0 {
		t.Errorf("%s: no order finished", p.Name())
	}
	if skipOverruns {
		t.Logf("%s: %d of %d orders finished within %v, all at %d", p.Name(), finished, len(orders), opts.TimeLimit, want)
	}
}
