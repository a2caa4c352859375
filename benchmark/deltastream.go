package main

import (
	"fmt"
	"time"

	"light"
)

// deltaQueryList is what delta-stream counts on the dirty snapshot: the
// query list without P4, whose cost would hide the overlay's.
var deltaQueryList = []string{"P1", "P2", "P3", "P6", "P7"}

// deltaPatterns are counted incrementally with CountDelta on every pass.
var deltaPatterns = []string{"P2", "P6"}

const (
	deltaCompactEvery = 4
	// deltaPinned are the passes whose counts the oracle pins; the first
	// two compactions fall on them. A measurement runs at least this far.
	deltaPinnedA, deltaPinnedB = 4, 8
)

// deltaStreamInst is the delta-stream instance.
type deltaStreamInst struct {
	g        *light.Graph
	stream   *deltaStream
	patterns map[string]*light.Pattern
	opts     light.Options
	pass     int               // passes applied so far
	last     map[string]uint64 // counts of the latest snapshot
}

func setupDeltaStream(in graphInput, seed int64) (instance, error) {
	g := light.NewGraph(in.N, in.Edges)
	x := &deltaStreamInst{
		g: g, stream: newDeltaStream(g, seed),
		patterns: make(map[string]*light.Pattern),
		opts:     light.Options{Workers: loadWorkers(), Intersection: light.HybridBitmap},
		last:     make(map[string]uint64),
	}
	ps, err := catalogPatterns(deltaQueryList)
	if err != nil {
		return nil, err
	}
	// Warm-up on the clean graph; its counts are the stream's state 0.
	for i, p := range ps {
		x.patterns[deltaQueryList[i]] = p
		res, err := light.Count(g, p, x.opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up count %s: %w", deltaQueryList[i], err)
		}
		x.last[deltaQueryList[i]] = res.Matches
	}
	return x, nil
}

// passState names the graph state after n passes, for the oracle.
func passState(n int) string { return fmt.Sprintf("pass%d", n) }

func (x *deltaStreamInst) measure(d time.Duration, traced bool) (*measurement, error) {
	m := newMeasurement()
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	// timed runs fn and, when tracing, records it as a span under root.
	timed := func(name, layer string, root int, fn func() (*light.RunReport, error)) (time.Duration, error) {
		var s0 int64
		if tr != nil {
			s0 = tr.now()
		}
		start := time.Now()
		rep, err := fn()
		took := time.Since(start)
		if tr != nil && err == nil {
			idx := tr.add(span{Name: name, Layer: layer, Parent: root, Req: uint64(x.pass), Start: s0, End: tr.now()})
			tr.addRunSpans(idx, rep)
		}
		return took, err
	}
	deadline := time.Now().Add(d)
	for x.pass < deltaPinnedB || time.Now().Before(deadline) {
		x.pass++
		batch := x.stream.next()
		root := -1
		if tr != nil {
			root = tr.add(span{Name: "op", Layer: "harness", Parent: -1, Req: uint64(x.pass), Start: tr.now()})
		}
		opStart := time.Now()

		from := x.g.Snapshot()
		var to *light.Snapshot
		took, err := timed("Graph.ApplyEdges", "delta", root, func() (*light.RunReport, error) {
			var err error
			to, err = x.g.ApplyEdges(batch.Add, batch.Remove)
			return nil, err
		})
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", x.pass, err)
		}
		m.mutateLat.add(float64(took))

		counts := make(map[string]uint64, len(deltaQueryList))
		for _, name := range deltaQueryList {
			var res light.Result
			if _, err := timed("light.Count", "light", root, func() (*light.RunReport, error) {
				var err error
				res, err = light.Count(x.g, x.patterns[name], x.opts)
				return res.Report, err
			}); err != nil {
				return nil, fmt.Errorf("pass %d: count %s: %w", x.pass, name, err)
			}
			counts[name] = res.Matches
			m.attempted++
			if x.pass == deltaPinnedA || x.pass == deltaPinnedB {
				m.observe(obsKey{State: passState(x.pass), Query: name}, res.Matches)
			}
		}
		for _, name := range deltaPatterns {
			var dr light.DeltaResult
			if _, err := timed("light.CountDelta", "delta", root, func() (*light.RunReport, error) {
				var err error
				dr, err = light.CountDelta(x.g, x.patterns[name], from, to, x.opts)
				return nil, err
			}); err != nil {
				return nil, fmt.Errorf("pass %d: count delta %s: %w", x.pass, name, err)
			}
			m.attempted++
			if want := int64(x.last[name]) + dr.Net; int64(counts[name]) != want {
				m.fail("pass %d: %s count(to)=%d but count(from)+Net=%d", x.pass, name, counts[name], want)
			}
		}
		if x.pass%deltaCompactEvery == 0 {
			if _, err := timed("Graph.Compact", "delta", root, func() (*light.RunReport, error) {
				_, err := x.g.Compact()
				return nil, err
			}); err != nil {
				return nil, fmt.Errorf("pass %d: %w", x.pass, err)
			}
		}
		x.last = counts

		op := time.Since(opStart)
		if tr != nil {
			tr.spans[root].End = tr.now()
		}
		m.addOp("", op)
		m.opSeconds += op.Seconds()
		m.ops++
	}
	if tr != nil {
		m.spans = tr.spans
	}
	return m, nil
}

// finish recounts the final snapshot with the reference configuration:
// the stream's length depends on the clock, so its end state cannot be
// pinned in a file, but it can be recounted independently.
func (x *deltaStreamInst) finish(m *measurement) error {
	for _, name := range deltaQueryList {
		res, err := light.Count(x.g, x.patterns[name], oracleOptions)
		if err != nil {
			return fmt.Errorf("final recount %s: %w", name, err)
		}
		m.attempted++
		if res.Matches != x.last[name] {
			m.fail("final state after %d passes: %s counted %d, reference recount %d", x.pass, name, x.last[name], res.Matches)
		}
	}
	return nil
}

func (x *deltaStreamInst) close() {}

// deltaOracle replays the stream on its own graph and returns the
// reference counts after the pinned passes.
func deltaOracle(in graphInput, seed int64) (map[string]uint64, error) {
	g := light.NewGraph(in.N, in.Edges)
	stream := newDeltaStream(g, seed)
	patterns, err := catalogPatterns(deltaQueryList)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for pass := 1; pass <= deltaPinnedB; pass++ {
		b := stream.next()
		if _, err := g.ApplyEdges(b.Add, b.Remove); err != nil {
			return nil, err
		}
		if pass != deltaPinnedA && pass != deltaPinnedB {
			continue
		}
		for i, p := range patterns {
			res, err := light.Count(g, p, oracleOptions)
			if err != nil {
				return nil, fmt.Errorf("oracle count %s at pass %d: %w", deltaQueryList[i], pass, err)
			}
			out[passState(pass)+"/"+deltaQueryList[i]] = res.Matches
		}
	}
	return out, nil
}
