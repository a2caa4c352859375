package approx

import (
	"math"
	"testing"

	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

func exact(t *testing.T, g *graph.Graph, p *pattern.Pattern) float64 {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Choose(p, po, estimate.Collect(g), plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(g, pl, engine.Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Matches)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestTriangleOnComplete(t *testing.T) {
	g := gen.Complete(12)
	p := pattern.Triangle()
	want := exact(t, g, p) // C(12,3) = 220
	res, err := Count(g, estimate.Collect(g), p, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.1 {
		t.Fatalf("estimate %.1f vs exact %.0f (err %.1f%%)", res.Estimate, want, 100*e)
	}
	if res.Hits == 0 || res.Samples != 20000 {
		t.Fatalf("bad metadata: %+v", res)
	}
}

func TestTrianglesOnER(t *testing.T) {
	g := gen.ErdosRenyi(300, 3000, 7)
	p := pattern.Triangle()
	want := exact(t, g, p)
	res, err := Count(g, estimate.Collect(g), p, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.25 {
		t.Fatalf("estimate %.1f vs exact %.0f (err %.1f%%)", res.Estimate, want, 100*e)
	}
}

func TestSquaresOnBA(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 3)
	p := pattern.P1()
	want := exact(t, g, p)
	res, err := Count(g, estimate.Collect(g), p, 200000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.3 {
		t.Fatalf("estimate %.1f vs exact %.0f (err %.1f%%)", res.Estimate, want, 100*e)
	}
}

func TestZeroMatches(t *testing.T) {
	// A grid has no triangles: the estimator must return exactly 0.
	g := gen.Grid(10, 10)
	p := pattern.Triangle()
	res, err := Count(g, estimate.Collect(g), p, 5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.Hits != 0 {
		t.Fatalf("grid triangles estimated %v (hits %d), want 0", res.Estimate, res.Hits)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 5)
	p := pattern.P2()
	a, err := Count(g, estimate.Collect(g), p, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(g, estimate.Collect(g), p, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.Hits != b.Hits {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
}

func TestConvergence(t *testing.T) {
	// More samples → error shrinks (on average; checked on fixed seeds
	// with a generous margin).
	g := gen.ErdosRenyi(200, 1600, 9)
	p := pattern.Triangle()
	want := exact(t, g, p)
	small, _ := Count(g, estimate.Collect(g), p, 500, 10)
	large, _ := Count(g, estimate.Collect(g), p, 200000, 10)
	if relErr(large.Estimate, want) > 0.2 {
		t.Fatalf("large-sample estimate off by %.1f%%", 100*relErr(large.Estimate, want))
	}
	_ = small // small-sample runs are allowed to be wild; only recorded
}

func TestCountWithPlanCustomOrder(t *testing.T) {
	g := gen.Complete(10)
	p := pattern.P2()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, []pattern.Vertex{0, 2, 1, 3}, plan.ModeSE)
	if err != nil {
		t.Fatal(err)
	}
	want := exact(t, g, p)
	res := CountWithPlan(g, pl, 30000, 6)
	if e := relErr(res.Estimate, want); e > 0.15 {
		t.Fatalf("estimate %.1f vs exact %.0f (err %.1f%%)", res.Estimate, want, 100*e)
	}
}
