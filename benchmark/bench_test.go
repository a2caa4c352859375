package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.95, 48}, {0.125, 15},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestHistQuantile(t *testing.T) {
	// A skewed sample over three decades, as latencies are.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	a, b := new(hist), new(hist)
	for i := range xs {
		xs[i] = 5e4 * math.Exp(rng.NormFloat64()) // ns
		if i%2 == 0 {
			a.add(xs[i])
		} else {
			b.add(xs[i])
		}
	}
	a.merge(b)
	if a.n != len(xs) {
		t.Fatalf("merged histogram holds %d samples, want %d", a.n, len(xs))
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		got, want := a.quantile(q), percentile(xs, q)
		if math.Abs(got-want) > 0.004*want {
			t.Errorf("quantile(%v) = %v, exact %v: off by more than 0.4%%", q, got, want)
		}
	}
	few := new(hist)
	for _, x := range []float64{3e6, 1e6, 2e6} {
		few.add(x)
	}
	if got := few.quantile(0.5); math.Abs(got-2e6) > 0.002*2e6 {
		t.Errorf("median of three = %v, want 2e6 within a bucket", got)
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	// Out of range on either side is clamped, not dropped.
	edge := new(hist)
	edge.add(1)
	edge.add(1e15)
	if edge.n != 2 || edge.quantile(0) > histMinNS*histGrowth || edge.quantile(1) < histEdge(histBuckets-1) {
		t.Errorf("out-of-range samples: n=%d min=%v max=%v", edge.n, edge.quantile(0), edge.quantile(1))
	}
}

// syntheticTree is one operation: a root with two overlapping children,
// a grandchild, and a child that runs past the root's end.
//
//	root   [0,100]  harness
//	  a    [10,40]  server
//	    aa [15,25]  light
//	  b    [30,60]  server   (overlaps a on [30,40])
//	  c    [90,120] engine   (clipped to [90,100])
func syntheticTree() []span {
	return []span{
		{Name: "root", Layer: "harness", Parent: -1, Start: 0, End: 100},
		{Name: "a", Layer: "server", Parent: 0, Start: 10, End: 40},
		{Name: "aa", Layer: "light", Parent: 1, Start: 15, End: 25},
		{Name: "b", Layer: "server", Parent: 0, Start: 30, End: 60},
		{Name: "c", Layer: "engine", Parent: 0, Start: 90, End: 120},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(syntheticTree())
	// root: 100 - (|[10,60]| + |[90,100]|) = 40.
	want := []int64{40, 20, 10, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLayerShares(t *testing.T) {
	shares, total := layerShares(syntheticTree())
	if total != 100 {
		t.Fatalf("end-to-end time = %d, want 100", total)
	}
	for layer, want := range map[string]float64{"harness": 0.40, "server": 0.50, "light": 0.10, "engine": 0.30} {
		if math.Abs(shares[layer]-want) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], want)
		}
	}
	ms := make(metricSet)
	traceMetrics(ms, syntheticTree())
	if got := ms["trace.coverage_pct"].V; math.Abs(got-60) > 1e-9 {
		t.Errorf("coverage = %v%%, want 60%%", got)
	}
}

func TestAddReportedClipsToParent(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.add(span{Name: "root", Layer: "harness", Parent: -1, Req: 7, Start: 100, End: 200})
	in := tr.spans[tr.addReported("run", "engine", root, 30)]
	if in.Start != 170 || in.End != 200 || in.Req != 7 || in.Parent != root {
		t.Errorf("reported span = %+v, want [170,200] under the root", in)
	}
	over := tr.spans[tr.addReported("run", "engine", root, 500)]
	if over.Start != 100 || over.End != 200 {
		t.Errorf("a reported duration longer than its parent = [%d,%d], want the parent's [100,200]", over.Start, over.End)
	}
}

func TestMergeTracersRebasesParents(t *testing.T) {
	a, b := newTracer(time.Now()), newTracer(time.Now())
	a.add(span{Name: "a0", Parent: -1})
	a.add(span{Name: "a1", Parent: 0})
	b.add(span{Name: "b0", Parent: -1})
	b.add(span{Name: "b1", Parent: 0})
	merged := mergeTracers([]*tracer{a, b})
	if len(merged) != 4 || merged[1].Parent != 0 || merged[2].Parent != -1 || merged[3].Parent != 2 {
		t.Errorf("merged parents = %d %d %d %d, want -1 0 -1 2",
			merged[0].Parent, merged[1].Parent, merged[2].Parent, merged[3].Parent)
	}
}

func TestSequenceHashFollowsSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := sequenceHash(w, 1, 300)
		if err != nil {
			t.Fatal(err)
		}
		again, err := sequenceHash(w, 1, 300)
		if err != nil {
			t.Fatal(err)
		}
		other, err := sequenceHash(w, 2, 300)
		if err != nil {
			t.Fatal(err)
		}
		if a != again {
			t.Errorf("%s: seed 1 gave two request sequences (%x, %x)", w, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence (%x)", w, a)
		}
	}
}

func TestVerify(t *testing.T) {
	expected := map[string]uint64{"S0/P1": 10, "S0+E/P1": 12, "S0/P2": 5000, "S0+E/P2": 900}
	m := newMeasurement()
	m.observe(obsKey{State: "any", Query: "P1"}, 10)
	m.observe(obsKey{State: "any", Query: "P1"}, 12)
	m.observe(obsKey{State: "S0+E", Query: "P1"}, 12)
	m.observe(obsKey{State: "any", Query: "P2", Rows: true}, enumerateLimit) // S0: limited
	m.observe(obsKey{State: "any", Query: "P2", Rows: true}, 900)            // S0+E: all rows
	m.verify(expected)
	if m.failed != 0 {
		t.Fatalf("right answers failed: %v", m.failures)
	}
	m.observe(obsKey{State: "S0", Query: "P1"}, 12) // right for S0+E only
	m.observe(obsKey{State: "S0", Query: "P1"}, 12)
	m.observe(obsKey{State: "any", Query: "P1"}, 11)
	m.verify(expected)
	if m.failed != 3 {
		t.Errorf("failed = %d, want 3 (a strict-state answer seen twice, and a count of neither state)", m.failed)
	}
}

func TestMetricSetComplete(t *testing.T) {
	ms := make(metricSet)
	for _, d := range endToEnd {
		ms.set(d.Name, 1, 1)
	}
	if err := ms.complete(endToEnd); err != nil {
		t.Errorf("a complete set was refused: %v", err)
	}
	ms.set("not.declared", 1, 1)
	if err := ms.complete(endToEnd); err == nil {
		t.Error("an undeclared metric was printed")
	}
	delete(ms, "not.declared")
	delete(ms, "setup_s")
	if err := ms.complete(endToEnd); err == nil {
		t.Error("a missing metric went unnoticed")
	}
	ms.set("setup_s", math.NaN(), 1)
	if err := ms.complete(endToEnd); err == nil {
		t.Error("a NaN was printed")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredMetricsMatchManifest keeps the table in metrics.go, which
// is all a run can print, equal to BENCHMARK.json, which is all the
// driver expects.
func TestDeclaredMetricsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind string, defs []metricDef, got []manifestMetric, bounded bool) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics declared in metrics.go, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, metrics.go has %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound of %s is %v in BENCHMARK.json, %v in metrics.go (want equal, in (0, 0.25])", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metric %s has a bound", kind, d.Name)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q does not match %s", kind, d.Name, nameRE)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q of %s does not match %s", kind, d.Unit, d.Name, unitRE)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("name %s is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", endToEnd, mf.EndToEnd, true)
	// Set-up is timed a few times a run, everything else thousands of
	// times: no bound may be wider than set-up's.
	for _, d := range endToEnd {
		if endToEnd[0].Name != "setup_s" || d.Bound > endToEnd[0].Bound {
			t.Errorf("bound of %s (%v) is wider than that of setup_s (%v)", d.Name, d.Bound, endToEnd[0].Bound)
		}
	}
	check("per_layer", perLayer, mf.PerLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}

	if len(mf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(mf.Workloads), len(workloadNames))
	}
	for i, w := range mf.Workloads {
		spec := workloads[workloadNames[i]]
		if w.Name != workloadNames[i] || w.Why != spec.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workload.go has %q (%q)", i, w.Name, w.Why, workloadNames[i], spec.why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name, a why over 200 characters, or a name used twice", w.Name)
		}
		seen[w.Name] = true
	}
	if mf.RunSeconds != runSeconds || mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d in BENCHMARK.json, %d in main.go (want equal, in 1..60)", mf.RunSeconds, runSeconds)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", mf.Paths)
	}
}
