package light

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"light/internal/labeled"
)

// bruteLabeled counts the label-preserving matches of p in g from first
// principles — every injective, edge- and label-preserving assignment
// that filter (nil: all) approves, divided by the label-preserving
// automorphism count. each, when non-nil, sees every assignment.
func bruteLabeled(g *LabeledGraph, p *LabeledPattern, filter func(u int, v VertexID) bool, each func(m []VertexID)) uint64 {
	pp, gg := p.lp.P, g.lg.G
	n, nv := pp.NumVertices(), gg.NumVertices()
	m := make([]VertexID, n)
	used := make([]bool, nv)
	var homs uint64
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			homs++
			if each != nil {
				each(m)
			}
			return
		}
		for v := VertexID(0); int(v) < nv; v++ {
			if used[v] || g.Label(v) != p.lp.Labels[u] || (filter != nil && !filter(u, v)) {
				continue
			}
			ok := true
			for w := 0; w < u && ok; w++ {
				ok = !pp.HasEdge(u, w) || gg.HasEdge(v, m[w])
			}
			if !ok {
				continue
			}
			m[u], used[v] = v, true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
	return homs / uint64(len(p.lp.Automorphisms()))
}

// randomLabels assigns each of n vertices one of k labels.
func randomLabels(rng *rand.Rand, n, k int) []Label {
	out := make([]Label, n)
	for i := range out {
		out[i] = Label(rng.Intn(k))
	}
	return out
}

func mustLabeled(t *testing.T, g *Graph, labels []Label) *LabeledGraph {
	t.Helper()
	lg, err := WithLabels(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func mustLabeledPattern(t *testing.T, name string, labels []Label) *LabeledPattern {
	t.Helper()
	p, err := PatternByName(name)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := WithPatternLabels(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

func TestLabeledAPI(t *testing.T) {
	// A 4-cycle alternating labels A-B-A-B: exactly one A-B-A path3 per
	// A vertex as the middle? Use explicit tiny case: count A-B edges.
	g := NewGraph(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	lg, err := WithLabels(g, []Label{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	edge, _ := PatternByName("path2")
	lp, err := WithPatternLabels(edge, []Label{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CountLabeled(lg, lp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All four cycle edges connect an A to a B.
	if res.Matches != 4 {
		t.Fatalf("A-B edges = %d, want 4", res.Matches)
	}
	if lg.Label(0) != 0 {
		t.Fatal("Label accessor broken")
	}
}

func TestLabeledAPIValidation(t *testing.T) {
	g := GenerateComplete(3)
	if _, err := WithLabels(g, []Label{0}); err == nil {
		t.Fatal("short labels accepted")
	}
	tri, _ := PatternByName("triangle")
	if _, err := WithPatternLabels(tri, []Label{0}); err == nil {
		t.Fatal("short pattern labels accepted")
	}
	lg, _ := WithLabels(g, []Label{0, 0, 0})
	lp, _ := WithPatternLabels(tri, []Label{0, 0, 0})
	if _, err := EnumerateLabeled(lg, lp, Options{}, nil); err == nil {
		t.Fatal("nil visitor accepted")
	}
}

// TestLabeledEnumerateAndParallelAgree: one worker ≡ four, and the
// enumerated matches ≡ the count, each respecting the labels — on both
// pool sizes, the visitor running behind the pool's stop latch.
func TestLabeledEnumerateAndParallelAgree(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 8)
	labels := make([]Label, g.NumVertices())
	for v := range labels {
		labels[v] = Label(v % 3)
	}
	lg := mustLabeled(t, g, labels)
	lp := mustLabeledPattern(t, "triangle", []Label{0, 1, 2})
	seq, err := CountLabeled(lg, lp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CountLabeled(lg, lp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Matches != par.Matches || seq.Nodes != par.Nodes || seq.Intersections != par.Intersections {
		t.Fatalf("4 workers: matches %d nodes %d intersections %d; 1 worker: %d %d %d",
			par.Matches, par.Nodes, par.Intersections, seq.Matches, seq.Nodes, seq.Intersections)
	}
	for _, workers := range []int{1, 4} {
		var visited uint64
		_, err = EnumerateLabeled(lg, lp, Options{Workers: workers}, func(m []VertexID) bool {
			if lg.Label(m[0]) != 0 || lg.Label(m[1]) != 1 || lg.Label(m[2]) != 2 {
				t.Errorf("labels violated: %v", m)
			}
			visited++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if visited != seq.Matches {
			t.Fatalf("workers=%d: visited %d, counted %d", workers, visited, seq.Matches)
		}
	}
}

// TestLabeledParallelMatchesSequential: with random two-label data and a
// mixed-label triangle, four workers count what one does.
func TestLabeledParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := GenerateBarabasiAlbert(400, 5, 7)
	g := mustLabeled(t, base, randomLabels(rng, base.NumVertices(), 2))
	p := mustLabeledPattern(t, "triangle", []Label{0, 0, 1})
	seq, err := CountLabeled(g, p, Options{Algorithm: LIGHT})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CountLabeled(g, p, Options{Algorithm: LIGHT, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Matches != par.Matches {
		t.Fatalf("parallel %d != sequential %d", par.Matches, seq.Matches)
	}
	if want := bruteLabeled(g, p, nil, nil); seq.Matches != want {
		t.Fatalf("CountLabeled %d, brute %d", seq.Matches, want)
	}
}

// TestLabeledEnumerateStarHub: a star whose hub alone carries label 1;
// the hub-leaf edges are exactly the matches, each visited once.
func TestLabeledEnumerateStarHub(t *testing.T) {
	g := NewGraph(6, [][2]VertexID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	labels := make([]Label, 6)
	labels[g.MapVertex(0)] = 1
	lg := mustLabeled(t, g, labels)
	p := mustLabeledPattern(t, "path2", []Label{1, 0}) // hub-leaf edge
	count := 0
	res, err := EnumerateLabeled(lg, p, Options{Algorithm: LIGHT}, func(m []VertexID) bool {
		if lg.Label(m[0]) != 1 || lg.Label(m[1]) != 0 {
			t.Errorf("label violated in %v", m)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 5 || count != 5 {
		t.Fatalf("matches = %d, visited %d, want 5", res.Matches, count)
	}
}

// TestLabeledCountMatchesBruteForce: random labeled graphs and patterns
// against the independent brute-force reference.
func TestLabeledCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pats := []string{"triangle", "P1", "P2", "path3", "P4"}
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(3)
		base := GenerateErdosRenyi(25+rng.Intn(15), 60+rng.Intn(60), int64(trial))
		g := mustLabeled(t, base, randomLabels(rng, base.NumVertices(), k))
		name := pats[rng.Intn(len(pats))]
		pat, _ := PatternByName(name)
		p := mustLabeledPattern(t, name, randomLabels(rng, pat.NumVertices(), k))
		want := bruteLabeled(g, p, nil, nil)
		res, err := CountLabeled(g, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("trial %d (%s, k=%d): got %d, want %d", trial, name, k, res.Matches, want)
		}
	}
}

// TestLabeledUniformLabelsEqualUnlabeled: with a single label, labeled
// counting is unlabeled counting (§II-B's embedding of the one in the
// other).
func TestLabeledUniformLabelsEqualUnlabeled(t *testing.T) {
	base := GenerateBarabasiAlbert(120, 4, 5)
	g := mustLabeled(t, base, make([]Label, base.NumVertices()))
	for _, name := range CatalogNames()[:4] {
		p, _ := PatternByName(name)
		lp := mustLabeledPattern(t, name, make([]Label, p.NumVertices()))
		labeledRes, err := CountLabeled(g, lp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Count(base, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteLabeled(g, lp, nil, nil); labeledRes.Matches != want || plain.Matches != want {
			t.Fatalf("%s: labeled %d, unlabeled %d, brute %d", name, labeledRes.Matches, plain.Matches, want)
		}
	}
}

// TestLabeledAllAlgorithmsAgree: SE, LM, MSC and LIGHT count the same
// labeled matches.
func TestLabeledAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := GenerateBarabasiAlbert(200, 4, 3)
	g := mustLabeled(t, base, randomLabels(rng, base.NumVertices(), 3))
	p := mustLabeledPattern(t, "P2", []Label{0, 1, 0, 1})
	want := bruteLabeled(g, p, nil, nil)
	for _, alg := range []Algorithm{SE, LM, MSC, LIGHT} {
		res, err := CountLabeled(g, p, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("%s: %d, brute %d", alg, res.Matches, want)
		}
	}
}

// TestLabeledNLFFilterSoundAndEffective: the label+NLF filter accepts
// every assignment of every true match (found by brute force, not by
// the engine it prunes) and rejects vertices of the wrong label.
func TestLabeledNLFFilterSoundAndEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := GenerateBarabasiAlbert(150, 4, 2)
	g := mustLabeled(t, base, randomLabels(rng, base.NumVertices(), 4))
	p := mustLabeledPattern(t, "triangle", []Label{0, 1, 2})
	filter := labeled.Filter(g.lg, p.lp)
	want := bruteLabeled(g, p, nil, func(m []VertexID) {
		for u, v := range m {
			if !filter(u, v) {
				t.Fatalf("filter rejected matched vertex %d→%d", u, v)
			}
		}
	})
	if res, err := CountLabeled(g, p, Options{}); err != nil || res.Matches != want {
		t.Fatalf("CountLabeled = %d, %v; brute %d", res.Matches, err, want)
	}
	for v := VertexID(0); int(v) < base.NumVertices(); v++ {
		if g.Label(v) != p.lp.Labels[0] && filter(0, v) {
			t.Fatalf("filter passed wrong-label vertex %d", v)
		}
	}
}

// TestLabeledOptionMatrix makes CountLabeled's option surface total:
// every Options field is either honoured — the count equals the brute-
// force reference — or rejected with ErrUnsupportedOption.
func TestLabeledOptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := GenerateBarabasiAlbert(200, 5, 9)
	g := mustLabeled(t, base, randomLabels(rng, base.NumVertices(), 2))
	p := mustLabeledPattern(t, "P2", []Label{0, 1, 0, 1})
	notMultipleOf5 := func(u int, v VertexID) bool { return v%5 != 0 }
	want := bruteLabeled(g, p, nil, nil)
	snap := base.Snapshot()
	ckpt := filepath.Join(t.TempDir(), "labeled.ckpt")
	cases := []struct {
		field       string
		opts        Options
		unsupported bool
	}{
		{"Algorithm", Options{Algorithm: MSC}, false},
		{"Intersection", Options{Intersection: Galloping}, false},
		{"Workers", Options{Workers: 3}, false},
		{"TimeLimit", Options{TimeLimit: time.Minute}, false},
		{"Filter", Options{Filter: notMultipleOf5}, false},
		{"Order", Options{Order: []int{3, 2, 0, 1}}, false},
		{"CheckpointPath", Options{CheckpointPath: ckpt}, true},
		{"CheckpointInterval", Options{CheckpointInterval: time.Hour}, false},
		{"ResumeFrom", Options{ResumeFrom: ckpt}, true},
		{"Governor", Options{Workers: 2, Governor: NewGovernor(GovernorConfig{Slots: 2})}, false},
		{"MemoryBudget", Options{MemoryBudget: 1 << 30}, false},
		{"AdmissionTimeout", Options{Governor: NewGovernor(GovernorConfig{Slots: 1}), AdmissionTimeout: time.Minute}, false},
		{"Snapshot", Options{Snapshot: snap}, true},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.field] = true
		res, err := CountLabeled(g, p, c.opts)
		if c.unsupported {
			if !errors.Is(err, ErrUnsupportedOption) {
				t.Errorf("%s: err = %v, want ErrUnsupportedOption", c.field, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.field, err)
			continue
		}
		expect := want
		if c.opts.Filter != nil {
			expect = bruteLabeled(g, p, c.opts.Filter, nil)
		}
		if res.Matches != expect || res.Report == nil {
			t.Errorf("%s: %d matches (report %v), want %d", c.field, res.Matches, res.Report != nil, expect)
		}
		if c.opts.Governor != nil && res.Report.SlotsGranted < 1 {
			t.Errorf("%s: governed run reports SlotsGranted = %d", c.field, res.Report.SlotsGranted)
		}
	}
	for i, typ := 0, reflect.TypeOf(Options{}); i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("Options.%s has no cell in the labeled option matrix", name)
		}
	}
}

// TestLabeledMemoryBudgetAsCount: a MemoryBudget holds or stops a
// labeled query exactly as it does Count — uniform labels make the two
// the same query.
func TestLabeledMemoryBudgetAsCount(t *testing.T) {
	g := GenerateBarabasiAlbert(8000, 8, 13)
	p, _ := PatternByName("triangle")
	lg := mustLabeled(t, g, make([]Label, g.NumVertices()))
	lp := mustLabeledPattern(t, "triangle", make([]Label, 3))
	const slab = 256 << 10 // an unbudgeted arena's minimum slab; a budgeted arena carves exact sizes
	for _, c := range []struct {
		budget int64
		fails  bool // too small for one worker's buffers
	}{{slab - 1, false}, {64, true}} {
		plain, perr := Count(g, p, Options{Workers: 2, MemoryBudget: c.budget})
		lab, lerr := CountLabeled(lg, lp, Options{Workers: 2, MemoryBudget: c.budget})
		if c.fails {
			if !errors.Is(perr, ErrMemoryBudget) || !errors.Is(lerr, ErrMemoryBudget) {
				t.Fatalf("budget %d: Count err %v, labeled err %v; want ErrMemoryBudget from both", c.budget, perr, lerr)
			}
			continue
		}
		if perr != nil || lerr != nil {
			t.Fatalf("budget %d: Count err %v, labeled err %v; want both to fit", c.budget, perr, lerr)
		}
		if lab.Matches != plain.Matches {
			t.Fatalf("budget %d: labeled %d matches, Count %d", c.budget, lab.Matches, plain.Matches)
		}
	}
}

// TestUnsupportedOptionsAreTyped: every dirty-snapshot rejection and
// every option a labeled query refuses wraps ErrUnsupportedOption.
func TestUnsupportedOptionsAreTyped(t *testing.T) {
	g := GenerateBarabasiAlbert(60, 3, 4)
	p := triangles(t)
	clean := mustLabeled(t, g, make([]Label, g.NumVertices()))
	lp := mustLabeledPattern(t, "triangle", make([]Label, 3))
	snap := g.Snapshot()
	if _, err := g.ApplyEdges([][2]VertexID{{0, 59}}, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"SaveCSR/dirty", func() error { return g.SaveCSR(filepath.Join(dir, "g.csr")) }},
		{"ApproxCount/dirty", func() error { _, _, err := ApproxCount(g, p, 10, 1); return err }},
		{"WithLabels/dirty", func() error { _, err := WithLabels(g, make([]Label, g.NumVertices())); return err }},
		{"CountLabeled/Snapshot", func() error { _, err := CountLabeled(clean, lp, Options{Snapshot: snap}); return err }},
		{"CountLabeled/CheckpointPath", func() error {
			_, err := CountLabeled(clean, lp, Options{CheckpointPath: filepath.Join(dir, "ck")})
			return err
		}},
		{"CountLabeled/ResumeFrom", func() error {
			_, err := CountLabeled(clean, lp, Options{ResumeFrom: filepath.Join(dir, "ck")})
			return err
		}},
	} {
		if err := c.call(); !errors.Is(err, ErrUnsupportedOption) {
			t.Errorf("%s: err = %v, want ErrUnsupportedOption", c.name, err)
		}
	}
}

func TestApproxCountAPI(t *testing.T) {
	g := GenerateComplete(12)
	tri, _ := PatternByName("triangle")
	est, hits, err := ApproxCount(g, tri, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("no hits on a complete graph")
	}
	if math.Abs(est-220)/220 > 0.1 {
		t.Fatalf("estimate %.1f, want ≈220", est)
	}
	// Fewer than one probe estimates nothing: it is an error, not NaN
	// or -0 with a nil error.
	for _, samples := range []int{0, -1} {
		if est, hits, err := ApproxCount(g, tri, samples, 1); err == nil {
			t.Errorf("samples=%d: estimate %v, %d hits, nil error", samples, est, hits)
		}
	}
	// A graph with no vertex has no match to sample from.
	est, hits, err = ApproxCount(NewGraph(0, nil), tri, 100, 1)
	if err != nil || est != 0 || hits != 0 {
		t.Errorf("empty graph: estimate %v, %d hits, err %v; want 0, 0, nil", est, hits, err)
	}
}
