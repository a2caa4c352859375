package light

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"light/internal/gen"
	"light/internal/pattern"
	"light/internal/plan"
)

// completeGraph is the complete graph K_n.
func completeGraph(n int) *Graph { return newGraph(gen.Complete(n)) }

func TestCountTriangleOnComplete(t *testing.T) {
	g := completeGraph(10)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 120 {
		t.Fatalf("C(10,3) = 120, got %d", res.Matches)
	}
	if res.Duration <= 0 || len(res.Order) != 3 {
		t.Fatalf("result metadata missing: %+v", res)
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 4, 1)
	for _, name := range CatalogNames() {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for i, algo := range []Algorithm{LIGHT, SE, LM, MSC} {
			res, err := Count(g, p, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Matches
			} else if res.Matches != want {
				t.Fatalf("%s/%v: %d != %d", name, algo, res.Matches, want)
			}
		}
	}
}

func TestAllKernelsAgree(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 5, 2)
	p, _ := PatternByName("P2")
	var want uint64
	for i, k := range []Intersection{HybridBlock, Merge, MergeBlock, Galloping, Hybrid, HybridBitmap} {
		res, err := Count(g, p, Options{Intersection: k})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Matches
		} else if res.Matches != want {
			t.Fatalf("kernel %v: %d != %d", k, res.Matches, want)
		}
	}
}

func TestParallelAgreesWithSequential(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 5, 3)
	p, _ := PatternByName("P4")
	seq, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Count(g, p, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Matches != par.Matches {
		t.Fatalf("parallel %d != sequential %d", par.Matches, seq.Matches)
	}
	// Buffers come from per-worker arenas carved on demand, so the
	// parallel footprint is at least the sequential one (every worker
	// that touched work grew its own slab) and never zero.
	if par.CandidateMemoryBytes < seq.CandidateMemoryBytes || par.CandidateMemoryBytes <= 0 {
		t.Fatalf("parallel memory accounting missing: par %d, seq %d",
			par.CandidateMemoryBytes, seq.CandidateMemoryBytes)
	}
	if par.Report.CandidateMemoryBytes != par.CandidateMemoryBytes {
		t.Fatalf("report candidate memory %d != result's %d",
			par.Report.CandidateMemoryBytes, par.CandidateMemoryBytes)
	}
}

// TestSingleWorkerRunsOnPool pins what "serial" means now that every
// run takes the pool: at Workers 0 and 1 the pool has one worker, which
// claims root chunks.
func TestSingleWorkerRunsOnPool(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 5, 3)
	p, _ := PatternByName("P4")
	for _, workers := range []int{0, 1} {
		res, err := Count(g, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		r := res.Report
		if r.Workers != 1 || r.RootChunks < 1 {
			t.Fatalf("Workers=%d: report workers %d, root chunks %d; want 1, ≥ 1",
				workers, r.Workers, r.RootChunks)
		}
	}
}

func TestEnumerateVisitsAllMatches(t *testing.T) {
	g := completeGraph(7)
	p, _ := PatternByName("triangle")
	var count int
	res, err := Enumerate(g, p, Options{}, func(m []VertexID) bool {
		if len(m) != 3 || !(m[0] < m[1] && m[1] < m[2]) {
			t.Errorf("bad mapping %v", m)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(count) != res.Matches || count != 35 {
		t.Fatalf("visited %d, matches %d, want 35", count, res.Matches)
	}
	if _, err := Enumerate(g, p, Options{}, nil); err == nil {
		t.Fatal("nil visitor accepted")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := completeGraph(12)
	p, _ := PatternByName("triangle")
	n := 0
	res, err := Enumerate(g, p, Options{}, func(m []VertexID) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || n != 3 {
		t.Fatalf("stopped=%v n=%d", res.Stopped, n)
	}
}

func TestTimeLimitSurfaced(t *testing.T) {
	g := completeGraph(150)
	p, _ := PatternByName("clique5")
	_, err := Count(g, p, Options{TimeLimit: time.Nanosecond})
	if err != ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}

func TestExplicitOrder(t *testing.T) {
	g := GenerateBarabasiAlbert(150, 4, 5)
	p, _ := PatternByName("P2")
	auto, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	manual, err := countInOrder(g, p, []int{0, 2, 1, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Matches != manual.Matches {
		t.Fatalf("explicit order changed the count: %d vs %d", manual.Matches, auto.Matches)
	}
	if _, err := countInOrder(g, p, []int{1, 3, 0, 2}, Options{}); err == nil {
		t.Fatal("disconnected explicit order accepted")
	}
}

// countInOrder runs p on g's latest snapshot in the enumeration order
// pi, compiled by plan.Compile instead of chosen by the optimizer, and
// then down the path every Count takes after planning.
func countInOrder(g *Graph, p *Pattern, pi []int, opts Options) (Result, error) {
	pl, err := plan.Compile(p.p, pattern.SymmetryBreaking(p.p), pi, opts.Algorithm.mode())
	if err != nil {
		return Result{}, err
	}
	return execute(context.Background(), g.snap(), pl, opts, nil)
}

func TestNewGraphAndAccessors(t *testing.T) {
	g := NewGraph(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumVertices() != 4 || g.NumEdges() != 4 || g.MaxDegree() != 2 {
		t.Fatalf("bad graph: %v", g)
	}
	if g.MemoryBytes() <= 0 || g.String() == "" {
		t.Fatal("metadata accessors broken")
	}
	v := VertexID(0)
	if len(g.Neighbors(v)) != 2 || g.Degree(v) != 2 {
		t.Fatal("adjacency accessors broken")
	}
	if !g.HasEdge(g.Neighbors(0)[0], 0) {
		t.Fatal("HasEdge broken")
	}
}

func TestLoadEdgeListRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("# test\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := PatternByName("triangle")
	res, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 {
		t.Fatalf("triangle count = %d, want 1", res.Matches)
	}
	if _, err := LoadEdgeList(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadEdgeListGzip: a .gz file is decompressed transparently, and
// a .gz file that is not gzip is a clear error, not a garbage parse.
func TestLoadEdgeListGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt.gz")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte("# triangle\n0 1\n1 2\n2 0\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices, %d edges, want 3 and 3", g.NumVertices(), g.NumEdges())
	}
	bad := filepath.Join(dir, "bad.gz")
	if err := os.WriteFile(bad, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEdgeList(bad); err == nil {
		t.Fatal("accepted non-gzip .gz file")
	}
}

// TestLoadEdgeListPlainFile: a loaded graph is relabeled into degree
// order (ids ascending by degree), whatever the file's numbering.
func TestLoadEdgeListPlainFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	// Vertex 0 is the star's hub: it must get the highest id.
	if err := os.WriteFile(path, []byte("0 1\n0 2\n0 3\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.snap().view.Base().IsOrdered() {
		t.Fatal("LoadEdgeList must return a degree-ordered graph")
	}
	if hub := VertexID(g.NumVertices() - 1); g.Degree(hub) != 3 || !g.HasEdge(hub, 0) {
		t.Fatalf("the last id has degree %d, want the star's hub (degree 3)", g.Degree(hub))
	}
}

func TestNewPatternValidation(t *testing.T) {
	if _, err := NewPattern("disc", 4, [][2]int{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
	p, err := NewPattern("paw", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != 4 || p.NumEdges() != 4 || p.Name() != "paw" || p.String() == "" {
		t.Fatalf("pattern accessors broken: %v", p)
	}
}

func TestNames(t *testing.T) {
	if LIGHT.String() != "LIGHT" || SE.String() != "SE" || LM.String() != "LM" || MSC.String() != "MSC" {
		t.Fatal("algorithm names")
	}
	// All six kernel names round-trip through the one parser, in any
	// case; "" and the zero value both mean the default kernel.
	names := map[Intersection]string{
		Merge: "Merge", MergeBlock: "MergeBlock", Galloping: "Galloping", Hybrid: "Hybrid",
		HybridBlock: "HybridBlock", HybridBitmap: "HybridBitmap",
	}
	for k, name := range names {
		if k.String() != name {
			t.Errorf("kernel %d prints %q, want %q", k, k, name)
		}
		for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			if got, err := ParseIntersection(spelling); err != nil || got != k {
				t.Errorf("ParseIntersection(%q) = %v, %v, want %v", spelling, got, err, k)
			}
		}
	}
	var zero Intersection
	if def, err := ParseIntersection(""); err != nil || def != zero || zero != HybridBitmap {
		t.Errorf(`ParseIntersection("") = %v, %v; zero value %v; both must be HybridBitmap`, def, err, zero)
	}
	for _, bogus := range []string{"avx", "MergeBitmap"} {
		if _, err := ParseIntersection(bogus); err == nil {
			t.Errorf("kernel %q accepted", bogus)
		}
	}
	if len(CatalogNames()) != 7 {
		t.Fatal("catalog size")
	}
}

func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"": LIGHT, "LIGHT": LIGHT, "light": LIGHT,
		"SE": SE, "se": SE, "lm": LM, "MSC": MSC, "Msc": MSC,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for _, a := range []Algorithm{LIGHT, SE, LM, MSC} {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestGenerators(t *testing.T) {
	if g := GenerateErdosRenyi(50, 100, 1); g.NumEdges() != 100 {
		t.Fatal("ER")
	}
	if g := GenerateRMAT(8, 4, 1); g.NumVertices() != 256 {
		t.Fatal("RMAT")
	}
	if g := GenerateGrid(3, 3); g.NumVertices() != 9 {
		t.Fatal("grid")
	}
}

func TestCSRRoundTripPublic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := GenerateBarabasiAlbert(300, 4, 9)
	if err := g.SaveCSR(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := PatternByName("triangle")
	a, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(g2, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matches != b.Matches {
		t.Fatalf("CSR round trip changed count: %d vs %d", a.Matches, b.Matches)
	}
	if _, err := LoadCSR(filepath.Join(dir, "none.csr")); err == nil {
		t.Fatal("missing CSR accepted")
	}
}

// TestGoldenCatalogCounts pins exact counts on a fixed seeded graph: a
// regression tripwire for any change to generators, ordering, symmetry
// breaking, planning, or the engines. The values were cross-validated
// against the brute-force reference at introduction.
func TestGoldenCatalogCounts(t *testing.T) {
	golden := map[string]uint64{
		"P1": 8832,
		"P2": 3859,
		"P3": 147,
		"P4": 112620,
		"P5": 814990,
		"P6": 1833,
		"P7": 30,
	}
	g := GenerateBarabasiAlbert(500, 5, 2026)
	for _, name := range CatalogNames() {
		p, _ := PatternByName(name)
		for _, algo := range []Algorithm{LIGHT, SE} {
			res, err := Count(g, p, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != golden[name] {
				t.Errorf("%s/%v: %d, golden %d", name, algo, res.Matches, golden[name])
			}
		}
	}
}

// countHoms counts the injective homomorphisms of the pattern (pn
// vertices, pedges) into the graph (n vertices, edges) by backtracking
// in natural pattern-vertex order — no plan, no symmetry breaking, no
// intersection kernel. The reference for the default-kernel tests.
func countHoms(n int, edges [][2]VertexID, pn int, pedges [][2]int) uint64 {
	adj := make([][]VertexID, n)
	has := make([]bool, n*n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
		has[int(e[0])*n+int(e[1])] = true
		has[int(e[1])*n+int(e[0])] = true
	}
	back := make([][]int, pn) // earlier pattern neighbors of each vertex
	for _, e := range pedges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		back[b] = append(back[b], a)
	}
	all := make([]VertexID, n)
	for i := range all {
		all[i] = VertexID(i)
	}
	m := make([]VertexID, pn)
	used := make([]bool, n)
	var count uint64
	var rec func(u int)
	rec = func(u int) {
		if u == pn {
			count++
			return
		}
		cands := all
		if len(back[u]) > 0 {
			cands = adj[m[back[u][0]]]
		}
	next:
		for _, v := range cands {
			if used[v] {
				continue
			}
			for _, w := range back[u] {
				if !has[int(m[w])*n+int(v)] {
					continue next
				}
			}
			m[u], used[v] = v, true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
	return count
}

// referenceCounts returns the brute-force subgraph count of every
// catalog pattern in the snapshot.
func referenceCounts(t *testing.T, s *Snapshot) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, name := range CatalogNames() {
		out[name] = bruteCount(s, mustPattern(t, name))
	}
	return out
}

// bruteCount is the brute-force subgraph count of p in the snapshot:
// homomorphisms into the view divided by the pattern's automorphisms
// (its homomorphisms into itself).
func bruteCount(s *Snapshot, p *Pattern) uint64 {
	var edges [][2]VertexID
	for e := range snapshotEdges(s) {
		edges = append(edges, e)
	}
	pn := p.NumVertices()
	var pedges [][2]int
	var self [][2]VertexID
	for _, e := range p.p.Edges() {
		pedges = append(pedges, [2]int{e[0], e[1]})
		self = append(self, [2]VertexID{VertexID(e[0]), VertexID(e[1])})
	}
	return countHoms(s.NumVertices(), edges, pn, pedges) / countHoms(pn, self, pn, pedges)
}

// sameListWork reports whether two runs did bit-identical list-kernel
// work and probed no bitmap.
func sameListWork(a, b *RunReport) bool {
	return a.Intersections == b.Intersections && a.Galloping == b.Galloping &&
		a.Elements == b.Elements && a.BitmapProbes == 0 && b.BitmapProbes == 0
}

// probesHubs reports whether the default kernel must probe a hub bitmap
// when it runs p on a graph that indexes hubs. A clique's plan pushes
// every constraint into its COMPs (plan.Plan.Push), so each operand is
// cut to the ids above every earlier image; ids ascend with degree, so
// a hub's cut list is its short list of heavier neighbours, often the
// smallest operand, which the kernel then walks instead of probing (on
// the BA and star-chords graphs these tests use it always does; lj-s
// P3 still probes).
func probesHubs(p *Pattern) bool {
	n := p.NumVertices()
	return p.NumEdges() != n*(n-1)/2
}

// TestDefaultKernelEquivalence: the zero Options (hub-bitmap probing
// by default) find exactly what explicit HybridBlock and the brute-force
// reference find, for Count, CountBatch and CountDelta at 1, 2 and 4
// workers — on a graph with indexed hubs (where the default must probe
// on every pattern but a clique, see probesHubs),
// on two without (where it must do bit-identical work to HybridBlock),
// on a dirty snapshot that touches every indexed hub (which keeps its
// bitmap, rebuilt by the overlay, so the default still probes), and on
// that snapshot compacted.
func TestDefaultKernelEquivalence(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		hubs bool
	}{
		{"BA", GenerateBarabasiAlbert(900, 2, 7), true},
		{"ER", GenerateErdosRenyi(300, 1200, 7), false},
		{"grid", GenerateGrid(14, 14), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			if (g.NumHubs() > 0) != c.hubs {
				t.Fatalf("%v indexes %d hubs, want hubs=%v", g, g.NumHubs(), c.hubs)
			}
			// The update touches every indexed hub (one new edge each),
			// adds a few edges elsewhere and removes one.
			n := g.NumVertices()
			var add, rem [][2]VertexID
			base := g.snap().view.Base()
			for v := 0; v < n; v++ {
				if base.HubBitmap(VertexID(v)) == nil {
					continue
				}
				for w := 0; w < n; w++ {
					if w != v && !g.HasEdge(VertexID(v), VertexID(w)) {
						add = append(add, [2]VertexID{VertexID(v), VertexID(w)})
						break
					}
				}
			}
			for k := 0; k < 4; k++ {
				if u, v := VertexID(k), VertexID(n-1-k); !g.HasEdge(u, v) {
					add = append(add, [2]VertexID{u, v})
				}
			}
			rem = append(rem, [2]VertexID{VertexID(n / 3), g.Neighbors(VertexID(n / 3))[0]})

			clean := g.Snapshot()
			dirty, err := g.ApplyEdges(add, rem)
			if err != nil {
				t.Fatal(err)
			}
			compacted, err := g.Compact()
			if err != nil {
				t.Fatal(err)
			}
			views := []struct {
				name string
				snap *Snapshot
			}{
				{"clean", clean},
				{"dirty", dirty},
				{"compacted", compacted},
			}
			refs := map[string]map[string]uint64{}
			for _, v := range views {
				refs[v.name] = referenceCounts(t, v.snap)
			}

			var queries []BatchQuery
			for _, name := range CatalogNames() {
				queries = append(queries, BatchQuery{Pattern: mustPattern(t, name)})
			}
			for _, workers := range []int{1, 2, 4} {
				for _, v := range views {
					def := Options{Workers: workers, Snapshot: v.snap}
					list := def
					list.Intersection = HybridBlock
					for i, name := range CatalogNames() {
						want := refs[v.name][name]
						d, err := Count(g, queries[i].Pattern, def)
						if err != nil {
							t.Fatal(err)
						}
						l, err := Count(g, queries[i].Pattern, list)
						if err != nil {
							t.Fatal(err)
						}
						if d.Matches != want || l.Matches != want {
							t.Errorf("%s/%s workers %d: Count default %d, HybridBlock %d, reference %d",
								v.name, name, workers, d.Matches, l.Matches, want)
						}
						if c.hubs && probesHubs(queries[i].Pattern) && d.Report.BitmapProbes == 0 {
							t.Errorf("%s/%s workers %d: hubs are indexed, yet the default probed no bitmap", v.name, name, workers)
						}
						if !c.hubs && !sameListWork(d.Report, l.Report) {
							t.Errorf("%s/%s workers %d: no usable bitmap, yet default work differs from HybridBlock's:\ndefault:     %+v\nHybridBlock: %+v",
								v.name, name, workers, d.Report, l.Report)
						}
					}
					db, err := CountBatch(g, queries, def)
					if err != nil {
						t.Fatal(err)
					}
					lb, err := CountBatch(g, queries, list)
					if err != nil {
						t.Fatal(err)
					}
					for i, name := range CatalogNames() {
						if want := refs[v.name][name]; db.Queries[i].Matches != want || lb.Queries[i].Matches != want {
							t.Errorf("%s/%s workers %d: CountBatch default %d, HybridBlock %d, reference %d",
								v.name, name, workers, db.Queries[i].Matches, lb.Queries[i].Matches, want)
						}
					}
				}
				for _, to := range views[1:] {
					for i, name := range CatalogNames() {
						want := int64(refs[to.name][name]) - int64(refs["clean"][name])
						d, err := CountDelta(g, queries[i].Pattern, clean, to.snap, Options{Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						l, err := CountDelta(g, queries[i].Pattern, clean, to.snap, Options{Workers: workers, Intersection: HybridBlock})
						if err != nil {
							t.Fatal(err)
						}
						if d.Net != want || l.Net != want || d.Gained != l.Gained || d.Lost != l.Lost {
							t.Errorf("clean->%s/%s workers %d: CountDelta default +%d/-%d, HybridBlock +%d/-%d, reference net %d",
								to.name, name, workers, d.Gained, d.Lost, l.Gained, l.Lost, want)
						}
					}
				}
			}
		})
	}
}

// TestDefaultKernelProbesHubs fails, without a stopwatch, if the default
// query goes back to merging hub lists: on a hub graph the default P4
// run must probe bitmaps, scan under a third of the elements explicit
// HybridBlock scans, and say in its report which kernel it ran. The
// kernel is under test, not the planner, so the order is pinned to one
// whose second level intersects hub lists.
func TestDefaultKernelProbesHubs(t *testing.T) {
	g := GenerateBarabasiAlbert(1200, 3, 7)
	p := mustPattern(t, "P4")
	order := []int{0, 4, 1, 3, 2}
	def, err := countInOrder(g, p, order, Options{})
	if err != nil {
		t.Fatal(err)
	}
	list, err := countInOrder(g, p, order, Options{Intersection: HybridBlock})
	if err != nil {
		t.Fatal(err)
	}
	if def.Report.Kernel != "HybridBitmap" || list.Report.Kernel != "HybridBlock" {
		t.Errorf("reports name kernels %q and %q, want HybridBitmap and HybridBlock", def.Report.Kernel, list.Report.Kernel)
	}
	if def.Report.BitmapProbes == 0 || list.Report.BitmapProbes != 0 {
		t.Errorf("bitmap probes: default %d (want > 0), HybridBlock %d (want 0)", def.Report.BitmapProbes, list.Report.BitmapProbes)
	}
	if 3*def.Report.Elements >= list.Report.Elements {
		t.Errorf("default scanned %d elements, HybridBlock %d: want under a third", def.Report.Elements, list.Report.Elements)
	}
}
