package main

import (
	"fmt"
	"time"

	"light"
)

// oneshot is the oneshot-heavy instance: one caller counting the query
// list on a clean graph, alternating a serial and a W-worker pass.
type oneshot struct {
	g        *light.Graph
	patterns []*light.Pattern // in the seed's order
	names    []string
	opSeq    uint64
}

// minOneshotPairs keeps the median meaningful when -seconds is tiny.
const minOneshotPairs = 3

func catalogPatterns(names []string) ([]*light.Pattern, error) {
	ps := make([]*light.Pattern, len(names))
	for i, n := range names {
		p, err := light.PatternByName(n)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

func setupOneshot(in graphInput, seed int64) (instance, error) {
	o := &oneshot{g: light.NewGraph(in.N, in.Edges)}
	for _, i := range queryOrder(seed) {
		o.names = append(o.names, queryList[i])
	}
	var err error
	if o.patterns, err = catalogPatterns(o.names); err != nil {
		return nil, err
	}
	// One warm-up pair: first-touch page faults, the planner's cached
	// graph statistics and the arenas' first growth are set-up cost.
	warm := newMeasurement()
	for _, workers := range []int{1, loadWorkers()} {
		if _, err := o.pass(workers, warm, nil, -1); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// pass counts every pattern once with the given workers and returns the
// pass's wall time.
func (o *oneshot) pass(workers int, m *measurement, tr *tracer, parent int) (time.Duration, error) {
	start := time.Now()
	for i, p := range o.patterns {
		var s0 int64
		if tr != nil {
			s0 = tr.now()
		}
		res, err := light.Count(o.g, p, light.Options{Workers: workers})
		if err != nil {
			return 0, fmt.Errorf("count %s: %w", o.names[i], err)
		}
		if tr != nil {
			idx := tr.add(span{Name: "light.Count", Layer: "light", Parent: parent, Req: o.opSeq, Start: s0, End: tr.now()})
			tr.addRunSpans(idx, res.Report)
		}
		m.attempted++
		m.observe(obsKey{State: "S0", Query: o.names[i]}, res.Matches)
	}
	return time.Since(start), nil
}

func (o *oneshot) measure(d time.Duration, traced bool) (*measurement, error) {
	m := newMeasurement()
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	deadline := time.Now().Add(d)
	for pairs := 0; pairs < minOneshotPairs || time.Now().Before(deadline); pairs++ {
		o.opSeq++
		root := -1
		var s0 int64
		if tr != nil {
			s0 = tr.now()
			root = tr.add(span{Name: "op", Layer: "harness", Parent: -1, Req: o.opSeq, Start: s0})
		}
		var pair time.Duration
		for _, workers := range []int{1, loadWorkers()} {
			t, err := o.pass(workers, m, tr, root)
			if err != nil {
				return nil, err
			}
			pair += t
		}
		if tr != nil {
			tr.spans[root].End = tr.now()
		}
		m.addOp("", pair)
		m.opSeconds += pair.Seconds()
		m.ops++
	}
	if tr != nil {
		m.spans = tr.spans
	}
	return m, nil
}

func (o *oneshot) finish(*measurement) error { return nil }

func (o *oneshot) close() {}

// oracleOptions is the reference configuration: the baseline algorithm
// with the scalar merge kernel on one worker, which shares neither the
// plan (no lazy materialization, no set cover) nor the kernel nor the
// scheduler with what the workloads run.
var oracleOptions = light.Options{Algorithm: light.SE, Intersection: light.Merge}

// staticOracle returns the oracle of a workload that never mutates its
// graph: the reference count of each pattern in state S0.
func staticOracle(names []string) func(graphInput, int64) (map[string]uint64, error) {
	return func(in graphInput, _ int64) (map[string]uint64, error) {
		g := light.NewGraph(in.N, in.Edges)
		out := make(map[string]uint64, len(names))
		for _, n := range names {
			p, err := light.PatternByName(n)
			if err != nil {
				return nil, err
			}
			res, err := light.Count(g, p, oracleOptions)
			if err != nil {
				return nil, fmt.Errorf("oracle count %s: %w", n, err)
			}
			out["S0/"+n] = res.Matches
		}
		return out, nil
	}
}
