package light

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"light/internal/gen"
)

const counterBaselinePath = "testdata/counter_baseline.ndjson"

var updateBaseline = flag.Bool("update", false, "TestCounterBaseline: rewrite "+counterBaselinePath+" from this run instead of comparing against it")

// counterRow is one line of the golden file: a graph|pattern|configuration
// key and the run's deterministic work counters. Nothing in it depends on
// the host or the clock, so `git diff` of the file is the drift report.
type counterRow struct {
	Row      string            `json:"row"`
	Counters map[string]uint64 `json:"counters"`
}

func reportCounters(r *RunReport) map[string]uint64 {
	return map[string]uint64{
		"matches":       r.Matches,
		"nodes":         r.Nodes,
		"comps":         r.Comps,
		"intersections": r.Intersections,
		"galloping":     r.Galloping,
		"elements":      r.Elements,
		"bitmap_probes": r.BitmapProbes,
		"slots":         r.SlotsGranted,
	}
}

// TestCounterBaseline is the exactness gate: the work counters of a fixed
// set of runs — the list kernel the paper's figures name and the default
// kernel, serial and on 4 workers, on a social-network stand-in and on a
// hub-dominated graph, whose P1 plan marks an operand under the default
// kernel (plan.Plan.Marks); one run under a Governor; the catalog over a
// minimum-degree ladder as one lane batch and as a loop — must equal the
// committed golden rows exactly, whatever GOMAXPROCS is. The counters
// depend only on (graph, plan, kernel), so any difference is a behaviour
// change: either fix it, or regenerate the file with
//
//	go test -run TestCounterBaseline -update .
//
// and commit the diff as the record of what moved.
func TestCounterBaseline(t *testing.T) {
	yts, err := gen.ByName("yt-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Generator graphs go through the public constructor (rebuild), the
	// way lightenum loads a named dataset.
	ytg := rebuild(t, newGraph(yts.Make()))

	var fresh []counterRow
	byRow := map[string]map[string]uint64{}
	record := func(row string, c map[string]uint64) {
		fresh = append(fresh, counterRow{row, c})
		byRow[row] = c
	}

	// Kernel × workers. Serial and 4 workers must agree on every counter;
	// the two kernels must agree on matches, and the default one must
	// really probe where the list one never does (both graphs index hubs:
	// a silent fall-back to the list path would hollow the rows out),
	// except on a clique, whose cut operands leave nothing to probe
	// (probesHubs).
	for _, c := range []struct {
		graph    string
		g        *Graph
		patterns []string
	}{
		{"yt-s", ytg, []string{"P2", "P4", "P6"}},
		{"star-chords", rebuild(t, newGraph(gen.StarChords(4000, 24000, 7))), []string{"triangle", "P2", "P1"}},
	} {
		for _, name := range c.patterns {
			p := mustPattern(t, name)
			matches := map[Intersection]uint64{}
			// HybridBitmap is the zero Intersection: its rows pin the
			// path every zero-Options query takes.
			for _, kernel := range []Intersection{HybridBlock, HybridBitmap} {
				var serial map[string]uint64
				for _, w := range []struct {
					name    string
					workers int
				}{{"serial", 1}, {"4T", 4}} {
					res, err := Count(c.g, p, Options{Workers: w.workers, Intersection: kernel})
					if err != nil {
						t.Fatalf("%s %s %v %s: %v", c.graph, name, kernel, w.name, err)
					}
					got := reportCounters(res.Report)
					record(fmt.Sprintf("%s|%s|%v/%s", c.graph, p.Name(), kernel, w.name), got)
					if serial == nil {
						serial = got
					} else if !reflect.DeepEqual(got, serial) {
						t.Errorf("%s %s %v: counters depend on the worker count:\nserial %v\n%s     %v", c.graph, name, kernel, serial, w.name, got)
					}
				}
				if probes := serial["bitmap_probes"]; (kernel == HybridBitmap && probesHubs(p)) != (probes > 0) {
					t.Errorf("%s %s %v: %d bitmap probes", c.graph, name, kernel, probes)
				}
				matches[kernel] = serial["matches"]
			}
			if matches[HybridBitmap] != matches[HybridBlock] {
				t.Errorf("%s %s: HybridBitmap found %d matches, HybridBlock %d", c.graph, name, matches[HybridBitmap], matches[HybridBlock])
			}
		}
	}

	// The yt-s P4 HybridBlock/4T cell again under an uncontended 4-slot
	// Governor: admission sits outside the enumeration loop, so it must
	// grant the full request, degrade nothing and move no counter.
	p4 := mustPattern(t, "P4")
	res, err := Count(ytg, p4, Options{Workers: 4, Intersection: HybridBlock, Governor: NewGovernor(GovernorConfig{Slots: 4})})
	if err != nil {
		t.Fatal(err)
	}
	governed := reportCounters(res.Report)
	record("yt-s|"+p4.Name()+"|HybridBlock/4T-governed", governed)
	if len(res.Report.DegradationEvents) != 0 {
		t.Errorf("governed: unpressured run degraded: %v", res.Report.DegradationEvents)
	}
	want := map[string]uint64{"slots": 4}
	for k, v := range byRow["yt-s|"+p4.Name()+"|HybridBlock/4T"] {
		if k != "slots" {
			want[k] = v
		}
	}
	if !reflect.DeepEqual(governed, want) {
		t.Errorf("governed run: counters %v, want the ungoverned run's with a full grant: %v", governed, want)
	}

	// The whole catalog at every rung of a nested minimum-degree ladder,
	// as one lane batch and as a loop of filtered Counts: one lane group
	// per pattern, and every query's lane-attributed counters equal to
	// its solo run's. The two rows are the sums over the 35 queries.
	// Lanes walk every level to the leaves, so the minDeg = 0 reference
	// is filtered too (by a filter that accepts everything): an
	// unfiltered Count would count its trailing levels instead.
	var queries []BatchQuery
	for _, name := range CatalogNames() {
		for _, minDeg := range []int{0, 1, 2, 3, 4} {
			queries = append(queries, BatchQuery{Pattern: mustPattern(t, name), MinDegree: minDeg})
		}
	}
	opts := Options{Workers: 4, Intersection: HybridBlock}
	bres, err := CountBatch(ytg, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Groups != len(CatalogNames()) {
		t.Errorf("catalog batch: %d lane groups for %d patterns", bres.Groups, len(CatalogNames()))
	}
	batch, loop := map[string]uint64{}, map[string]uint64{}
	for i, q := range queries {
		o := opts
		min := q.MinDegree
		o.Filter = func(u int, v VertexID) bool { return ytg.Degree(v) >= min }
		solo, err := Count(ytg, q.Pattern, o)
		if err != nil {
			t.Fatalf("catalog %s/minDeg=%d: %v", q.Pattern.Name(), q.MinDegree, err)
		}
		b, s := reportCounters(bres.Queries[i].Report), reportCounters(solo.Report)
		if !reflect.DeepEqual(b, s) {
			t.Errorf("catalog %s/minDeg=%d: lane parity failed:\nbatch %v\nsolo  %v", q.Pattern.Name(), q.MinDegree, b, s)
		}
		for k := range b {
			batch[k] += b[k]
			loop[k] += s[k]
		}
	}
	record("yt-s|catalog|HybridBlock/batch-4T", batch)
	record("yt-s|catalog|HybridBlock/loop-4T", loop)

	if *updateBaseline {
		if t.Failed() {
			t.Fatal("not updating " + counterBaselinePath + ": the run failed its own invariants")
		}
		if err := writeCounterRows(counterBaselinePath, fresh); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := readCounterRows(counterBaselinePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range diffCounterRows(golden, fresh) {
		t.Error(msg)
	}
}

// diffCounterRows lists every way fresh departs from golden: a counter
// with another value, a row the golden file lacks, a golden row the run
// did not produce. Empty means identical.
func diffCounterRows(golden, fresh []counterRow) []string {
	var msgs []string
	want := make(map[string]map[string]uint64, len(golden))
	for _, r := range golden {
		want[r.Row] = r.Counters
	}
	for _, r := range fresh {
		w, ok := want[r.Row]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: not in the golden file (new row? rerun with -update)", r.Row))
			continue
		}
		delete(want, r.Row)
		names := make([]string, 0, len(r.Counters))
		for name := range r.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if r.Counters[name] != w[name] {
				msgs = append(msgs, fmt.Sprintf("%s: %s = %d, golden %d (deterministic counter drifted)", r.Row, name, r.Counters[name], w[name]))
			}
		}
	}
	missing := make([]string, 0, len(want))
	for row := range want {
		missing = append(missing, row+": in the golden file but not produced by this run")
	}
	sort.Strings(missing)
	return append(msgs, missing...)
}

// writeCounterRows writes one JSON object per line, counters in name
// order: the same run always produces the same bytes.
func writeCounterRows(path string, rows []counterRow) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readCounterRows(path string) ([]counterRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []counterRow
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var r counterRow
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// TestDiffCounterRows: the golden comparison reports a drifted counter by
// row and name, a row missing on either side, and nothing for a file that
// went through a write and a read.
func TestDiffCounterRows(t *testing.T) {
	rows := func() []counterRow {
		return []counterRow{
			{"g|P2|HybridBlock/serial", map[string]uint64{"matches": 992, "nodes": 14947, "slots": 0}},
			{"g|P4|HybridBlock/4T", map[string]uint64{"matches": 21891, "nodes": 74616, "slots": 4}},
		}
	}
	path := t.TempDir() + "/rows.ndjson"
	if err := writeCounterRows(path, rows()); err != nil {
		t.Fatal(err)
	}
	golden, err := readCounterRows(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := rows()
	drifted[1].Counters["nodes"]++
	extra := append(rows(), counterRow{"g|P6|HybridBlock/serial", map[string]uint64{"matches": 69}})
	for _, c := range []struct {
		name  string
		fresh []counterRow
		want  []string
	}{
		{"identical", rows(), nil},
		{"drifted counter", drifted, []string{"g|P4|HybridBlock/4T: nodes = 74617, golden 74616 (deterministic counter drifted)"}},
		{"row missing from the fresh run", rows()[:1], []string{"g|P4|HybridBlock/4T: in the golden file but not produced by this run"}},
		{"row missing from the golden file", extra, []string{"g|P6|HybridBlock/serial: not in the golden file (new row? rerun with -update)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := diffCounterRows(golden, c.fresh); !reflect.DeepEqual(got, c.want) {
				t.Errorf("got %q, want %q", got, c.want)
			}
		})
	}
}
