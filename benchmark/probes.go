package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"light"
	"light/internal/admission"
	"light/internal/engine"
	"light/internal/estimate"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/parallel"
	"light/internal/pattern"
	"light/internal/plan"
)

// The probes time each layer from outside, through its public
// functions, on the graph of the workload being traced. Each takes a
// fixed amount of work, not a fixed time, so its counts repeat exactly.

// timeIt returns the median wall time of reps calls of fn.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

func runProbes(ms metricSet, in graphInput, seed int64) error {
	gg, err := probeGraph(ms, in)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	lg := light.NewGraph(in.N, in.Edges)
	if err := probePlan(ms, gg, lg, seed); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	probeIntersect(ms, gg, seed)
	if err := probeEngineParallel(ms, gg); err != nil {
		return fmt.Errorf("engine/parallel: %w", err)
	}
	if err := probeAdmission(ms); err != nil {
		return fmt.Errorf("admission: %w", err)
	}
	if err := probeLanes(ms, lg); err != nil {
		return fmt.Errorf("lanes: %w", err)
	}
	if err := probeDelta(ms, in, seed); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	if err := probeServer(ms, in, seed); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// probeGraph times the graph layer's load paths on the workload's edge
// list and returns the ordered CSR the other probes run on.
func probeGraph(ms metricSet, in graphInput) (*graph.Graph, error) {
	const reps = 3
	var text bytes.Buffer
	for _, e := range in.Edges {
		fmt.Fprintf(&text, "%d %d\n", e[0], e[1])
	}
	d, err := timeIt(reps, func() error {
		_, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("graph.parse_edgelist_s", d.Seconds(), reps)

	var gg *graph.Graph
	d, _ = timeIt(reps, func() error {
		b := graph.NewBuilder(in.N)
		for _, e := range in.Edges {
			b.AddEdge(e[0], e[1])
		}
		gg, _ = graph.ReorderWithMapping(b.Build())
		return nil
	})
	ms.set("graph.build_s", d.Seconds(), reps)
	ms.set("graph.csr_bytes", float64(gg.MemoryBytes()), 1)

	var csr bytes.Buffer
	if err := gg.WriteCSR(&csr); err != nil {
		return nil, err
	}
	// Every load yields a fresh graph, whose fingerprint is not cached
	// yet and whose hub index can be rebuilt at another threshold.
	var loadS, fpMS, hubMS []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fresh, err := graph.ReadCSR(bytes.NewReader(csr.Bytes()))
		if err != nil {
			return nil, err
		}
		loadS = append(loadS, time.Since(start).Seconds())
		start = time.Now()
		fresh.Fingerprint()
		fpMS = append(fpMS, float64(time.Since(start))/1e6)
		// A threshold one above the auto-tuned one forces a real build
		// of nearly the same index.
		tau := gg.HubThreshold() + 1
		start = time.Now()
		fresh.BuildHubIndex(tau)
		hubMS = append(hubMS, float64(time.Since(start))/1e6)
	}
	ms.set("graph.load_csr_s", median(loadS), reps)
	ms.set("graph.fingerprint_ms", median(fpMS), reps)
	ms.set("graph.hub_build_ms", median(hubMS), reps)
	return gg, nil
}

// probePlan times the plan search per catalog pattern, light.PlanKey,
// and what light.Count adds on top of planning and enumerating.
// estimate.Collect has no row: it copies three sums the graph computed
// when it was built, which graph.build_s covers.
func probePlan(ms metricSet, gg *graph.Graph, lg *light.Graph, seed int64) error {
	const reps = 9
	stats := estimate.Collect(gg)
	var chooseUS, keyUS []float64
	for _, name := range light.CatalogNames() {
		p, err := pattern.ByName(name)
		if err != nil {
			return err
		}
		po := pattern.SymmetryBreaking(p)
		d, err := timeIt(reps, func() error {
			_, err := plan.Choose(p, po, stats, plan.ModeLIGHT)
			return err
		})
		if err != nil {
			return err
		}
		chooseUS = append(chooseUS, float64(d)/1e3)
		lp, err := light.PatternByName(name)
		if err != nil {
			return err
		}
		d, err = timeIt(reps, func() error {
			_, err := light.PlanKey(lg, lp, light.Options{})
			return err
		})
		if err != nil {
			return err
		}
		keyUS = append(keyUS, float64(d)/1e3)
	}
	ms.set("plan.choose_us_p50", median(chooseUS), len(chooseUS))
	ms.set("plan.choose_us_max", percentile(chooseUS, 1), len(chooseUS))
	ms.set("light.plankey_us", median(keyUS), len(keyUS))

	// A query small enough that fixed costs show: the triangle on a
	// 200-vertex graph.
	const smallReps = 501
	small := light.GenerateBarabasiAlbert(200, 3, seed)
	smallCSR := gen.BarabasiAlbert(200, 3, seed)
	tri, err := light.PatternByName("triangle")
	if err != nil {
		return err
	}
	itri := pattern.Triangle()
	po := pattern.SymmetryBreaking(itri)
	smallStats := estimate.Collect(smallCSR)
	// The whole and its two parts alternate, so all three see the same
	// machine; the overhead is the median of the per-round differences.
	overheadUS := make([]float64, 0, smallReps)
	for i := 0; i < smallReps; i++ {
		t0 := time.Now()
		if _, err := light.Count(small, tri, light.Options{}); err != nil {
			return err
		}
		t1 := time.Now()
		pl, err := plan.Choose(itri, po, smallStats, plan.ModeLIGHT)
		if err != nil {
			return err
		}
		if _, err := engine.New(smallCSR, pl, engine.Options{Kernel: intersect.KindHybridBlock}).Run(nil); err != nil {
			return err
		}
		parts := time.Since(t1)
		overheadUS = append(overheadUS, float64(t1.Sub(t0)-parts)/1e3)
	}
	ms.set("light.count_overhead_us", median(overheadUS), smallReps)
	return nil
}

// listPair is two sorted adjacency lists to intersect.
type listPair struct{ a, b []graph.VertexID }

func pairElems(ps []listPair) int {
	n := 0
	for _, p := range ps {
		n += len(p.a) + len(p.b)
	}
	return n
}

// probeIntersect times the kernels on adjacency lists of the graph:
// the endpoints' lists of sampled edges (what a triangle-closing COMP
// intersects), and hub lists against prefixes of their neighbours' lists
// at three size ratios.
func probeIntersect(ms metricSet, gg *graph.Graph, seed int64) {
	rng := rand.New(rand.NewSource(clientSeed(seed, 7)))
	n := gg.NumVertices()
	var edgePairs []listPair
	for len(edgePairs) < 2000 {
		u := graph.VertexID(rng.Intn(n))
		nu := gg.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		v := nu[rng.Intn(len(nu))]
		edgePairs = append(edgePairs, listPair{nu, gg.Neighbors(v)})
	}
	dst := make([]graph.VertexID, gg.MaxDegree()+1)
	// perElem times kernel over pairs, several sweeps, and returns the
	// median sweep's nanoseconds per input element.
	perElem := func(pairs []listPair, units int, kernel func(p listPair)) float64 {
		const sweeps = 15
		d, _ := timeIt(sweeps, func() error {
			for _, p := range pairs {
				kernel(p)
			}
			return nil
		})
		return ratio(float64(d), float64(units))
	}
	elems := pairElems(edgePairs)
	ms.set("intersect.merge_ns_per_elem", perElem(edgePairs, elems, func(p listPair) { intersect.Merge(dst, p.a, p.b) }), elems)
	ms.set("intersect.mergeblock_ns_per_elem", perElem(edgePairs, elems, func(p listPair) { intersect.MergeBlock(dst, p.a, p.b) }), elems)
	ms.set("intersect.galloping_ns_per_elem", perElem(edgePairs, elems, func(p listPair) { intersect.Galloping(dst, p.a, p.b) }), elems)

	// The highest-degree vertices have the highest ids in an ordered graph.
	hubs := make([]graph.VertexID, 0, 64)
	for v := n - 1; v >= 0 && len(hubs) < 64; v-- {
		hubs = append(hubs, graph.VertexID(v))
	}
	for _, r := range []int{1, 32, 1024} {
		var pairs []listPair
		for _, h := range hubs {
			big := gg.Neighbors(h)
			for _, w := range big[:min(len(big), 8)] {
				small := gg.Neighbors(w)
				small = small[:max(1, min(len(small), len(big)/r))]
				pairs = append(pairs, listPair{small, big})
			}
		}
		var st intersect.Stats
		elems := pairElems(pairs)
		ms.set(fmt.Sprintf("intersect.hybridblock_ns_per_elem.r%d", r),
			perElem(pairs, elems, func(p listPair) { intersect.HybridBlock(dst, p.a, p.b, intersect.DefaultDelta, &st) }), elems)
	}

	var bitmapPairs []listPair
	probes := 0
	for _, h := range hubs {
		if gg.HubBitmap(h) == nil {
			continue
		}
		for _, w := range gg.Neighbors(h)[:min(gg.Degree(h), 8)] {
			bitmapPairs = append(bitmapPairs, listPair{gg.Neighbors(w), []graph.VertexID{h}})
			probes += gg.Degree(w)
		}
	}
	var st intersect.Stats
	ms.set("intersect.mergebitmap_ns_per_probe", perElem(bitmapPairs, probes, func(p listPair) {
		intersect.MergeBitmap(dst, p.a, gg.HubBitmap(p.b[0]), &st)
	}), probes)
}

// probeEngineParallel runs the query list three ways, alternating:
// engine.Run, parallel.RunContext at one worker, and at W workers.
func probeEngineParallel(ms metricSet, gg *graph.Graph) error {
	const reps = 3
	w := loadWorkers()
	stats := estimate.Collect(gg)
	eopts := engine.Options{Kernel: intersect.KindHybridBlock}
	var serialNS, par1NS, parWNS float64
	var total engine.Result
	var candBytes int64
	var sched parallel.Result
	var busy, busyMax, queueWait time.Duration
	for _, name := range queryList {
		p, err := pattern.ByName(name)
		if err != nil {
			return err
		}
		pl, err := plan.Choose(p, pattern.SymmetryBreaking(p), stats, plan.ModeLIGHT)
		if err != nil {
			return err
		}
		var ser, p1, pw []float64
		var eres engine.Result
		var pres parallel.Result
		for i := 0; i < reps; i++ {
			e := engine.New(gg, pl, eopts)
			start := time.Now()
			if eres, err = e.Run(nil); err != nil {
				return err
			}
			ser = append(ser, float64(time.Since(start)))
			candBytes = max(candBytes, e.CandidateMemoryBytes())
			for _, workers := range []int{1, w} {
				start = time.Now()
				if pres, err = parallel.RunContext(context.Background(), gg, pl, parallel.Options{Engine: eopts, Workers: workers}, nil); err != nil {
					return err
				}
				took := float64(time.Since(start))
				if workers == 1 {
					p1 = append(p1, took)
				}
				if workers == w {
					// On a one-CPU host both appends happen: W is 1.
					pw = append(pw, took)
				}
				if pres.Matches != eres.Matches {
					return fmt.Errorf("%s: parallel at %d workers counted %d, engine %d", name, workers, pres.Matches, eres.Matches)
				}
			}
		}
		total.Add(eres)
		sched.Steals += pres.Steals
		sched.Donations += pres.Donations
		sched.RootChunksDispensed += pres.RootChunksDispensed
		queueWait += pres.QueueWaitTotal
		var sumBusy, maxBusy time.Duration
		for _, b := range pres.PerWorkerBusy {
			sumBusy += b
			maxBusy = max(maxBusy, b)
		}
		busy += sumBusy
		busyMax += maxBusy
		serialNS += median(ser)
		par1NS += median(p1)
		parWNS += median(pw)
		ms.set("parallel.speedup."+name, scaling(median(ser), median(pw)), reps)
	}
	ms.set("engine.ns_per_node", ratio(serialNS, float64(total.Nodes)), reps)
	ms.set("engine.nodes_per_s", ratio(float64(total.Nodes)*1e9, serialNS), reps)
	ms.set("engine.nodes", float64(total.Nodes), 1)
	ms.set("engine.comps", float64(total.Comps), 1)
	ms.set("engine.intersections", float64(total.Stats.Intersections), 1)
	ms.set("engine.elements", float64(total.Stats.Elements), 1)
	ms.set("engine.candidate_bytes", float64(candBytes), 1)
	ms.set("intersect.elements_per_node", ratio(float64(total.Stats.Elements), float64(total.Nodes)), 1)
	ms.set("intersect.galloping_pct", total.Stats.GallopingPercent(), 1)

	ms.set("parallel.w1_overhead_pct", 100*(ratio(par1NS, serialNS)-1), reps)
	ms.set("parallel.pass_speedup", scaling(serialNS, parWNS), reps)
	ms.set("parallel.efficiency", scaling(serialNS, parWNS)/float64(w), reps)
	ms.set("parallel.queue_wait_share", ratio(float64(queueWait), float64(queueWait+busy)), 1)
	ms.set("parallel.busy_imbalance", ratio(float64(busyMax)*float64(w), float64(busy))-1, 1)
	ms.set("parallel.steals", float64(sched.Steals), 1)
	ms.set("parallel.donations", float64(sched.Donations), 1)
	ms.set("parallel.root_chunks", float64(sched.RootChunksDispensed), 1)
	return nil
}

// oversubscribed reports a host on which a scaling number would be
// meaningless: fewer than two CPUs for the workers to spread over.
func oversubscribed() bool { return runtime.NumCPU() < 2 }

// isScaling reports the metrics that compare W workers with one.
func isScaling(name string) bool {
	return strings.HasPrefix(name, "parallel.speedup.") || name == "parallel.pass_speedup" || name == "parallel.efficiency"
}

// scaling returns serial/parallel, or 0 on an oversubscribed host,
// where the row is marked instead of measured.
func scaling(serialNS, parallelNS float64) float64 {
	if oversubscribed() {
		return 0
	}
	return ratio(serialNS, parallelNS)
}

// probeAdmission times an uncontended admit and release.
func probeAdmission(ms metricSet) error {
	const n = 20000
	gov := admission.New(admission.Config{Slots: 4, DisableWatchdog: true})
	start := time.Now()
	for i := 0; i < n; i++ {
		a, err := gov.Admit(context.Background(), 1, 0)
		if err != nil {
			return err
		}
		a.Close()
	}
	ms.set("admission.admit_ns", float64(time.Since(start))/n, n)
	return nil
}

// probeLanes compares one lane batch (a pattern at min_degree 0..4)
// with the same five queries run one after another at equal workers.
func probeLanes(ms metricSet, lg *light.Graph) error {
	const reps = 5
	p, err := light.PatternByName("P2")
	if err != nil {
		return err
	}
	opts := light.Options{Workers: loadWorkers()}
	queries := make([]light.BatchQuery, batchMaxDegree+1)
	for d := range queries {
		queries[d] = light.BatchQuery{Pattern: p, MinDegree: d}
	}
	var batch light.BatchResult
	batchD, err := timeIt(reps, func() error {
		var err error
		batch, err = light.CountBatch(lg, queries, opts)
		return err
	})
	if err != nil {
		return err
	}
	seqD, err := timeIt(reps, func() error {
		for d := range queries {
			o := opts
			if d > 0 {
				d := d
				o.Filter = func(_ int, v light.VertexID) bool { return lg.Degree(v) >= d }
			}
			res, err := light.Count(lg, p, o)
			if err != nil {
				return err
			}
			if res.Matches != batch.Queries[d].Matches {
				return fmt.Errorf("lane %d counted %d, sequential run %d", d, batch.Queries[d].Matches, res.Matches)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("lanes.batch_wall_ms", float64(batchD)/1e6, reps)
	ms.set("lanes.batch_speedup", ratio(float64(seqD), float64(batchD)), reps)
	ms.set("lanes.groups", float64(batch.Groups), 1)
	return nil
}

// probeDelta measures the overlay: applying and compacting batches, the
// slowdown of counting on a dirty snapshot at three touched shares, the
// cost of hubs losing their bitmaps, and CountDelta against a recount.
func probeDelta(ms metricSet, in graphInput, seed int64) error {
	const reps = 9
	p2, err := light.PatternByName("P2")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(clientSeed(seed, 11)))
	opts := light.Options{Workers: loadWorkers(), Intersection: light.HybridBitmap}
	countMS := func(g *light.Graph) (float64, error) {
		d, err := timeIt(reps, func() error {
			_, err := light.Count(g, p2, opts)
			return err
		})
		return float64(d) / 1e6, err
	}

	// Apply and compact: eight hub-biased batches of the stream's size.
	g := light.NewGraph(in.N, in.Edges)
	stream := newDeltaStream(g, seed)
	var applyUS, compactMS []float64
	for i := 0; i < 8; i++ {
		b := stream.next()
		start := time.Now()
		if _, err := g.ApplyEdges(b.Add, b.Remove); err != nil {
			return err
		}
		applyUS = append(applyUS, float64(time.Since(start))/1e3/float64(len(b.Add)+len(b.Remove)))
		if i%deltaCompactEvery == deltaCompactEvery-1 {
			start = time.Now()
			if _, err := g.Compact(); err != nil {
				return err
			}
			compactMS = append(compactMS, float64(time.Since(start))/1e6)
		}
	}
	ms.set("delta.apply_us_per_edge", median(applyUS), len(applyUS))
	ms.set("delta.compact_ms", median(compactMS), len(compactMS))

	// Dirty against compacted, same adjacency, at 0.1 %, 1 % and 10 % of
	// vertices touched: uniform edges touch two new vertices each.
	for _, t := range []struct {
		name  string
		share float64
	}{{"t0.1", 0.001}, {"t1", 0.01}, {"t10", 0.10}} {
		g := light.NewGraph(in.N, in.Edges)
		from := g.Snapshot()
		edges := uniformEdges(g, rng, max(1, int(t.share*float64(in.N)/2)))
		to, err := g.ApplyEdges(edges, nil)
		if err != nil {
			return err
		}
		dirty, err := countMS(g)
		if err != nil {
			return err
		}
		if t.name == "t1" {
			d, err := timeIt(reps, func() error {
				_, err := light.CountDelta(g, p2, from, to, opts)
				return err
			})
			if err != nil {
				return err
			}
			ms.set("delta.count_delta_ms", float64(d)/1e6, reps)
			ms.set("delta.recount_ms", dirty, reps)
			ms.set("delta.count_delta_vs_recount", ratio(float64(d)/1e6, dirty), reps)
		}
		if _, err := g.Compact(); err != nil {
			return err
		}
		clean, err := countMS(g)
		if err != nil {
			return err
		}
		ms.set("delta.overlay_slowdown."+t.name, ratio(dirty, clean), reps)
	}

	// One new edge on each indexed hub: their bitmaps are stale until
	// the next compaction, so intersections fall back to the lists.
	g = light.NewGraph(in.N, in.Edges)
	n := g.NumVertices()
	var hubEdges [][2]light.VertexID
	for v := n - 1; v >= n-g.NumHubs() && v > 0; v-- {
		for u := 0; u < v; u++ {
			if !g.HasEdge(light.VertexID(u), light.VertexID(v)) {
				hubEdges = append(hubEdges, [2]light.VertexID{light.VertexID(u), light.VertexID(v)})
				break
			}
		}
	}
	slowdown := 0.0
	if len(hubEdges) > 0 {
		if _, err := g.ApplyEdges(hubEdges, nil); err != nil {
			return err
		}
		dirty, err := countMS(g)
		if err != nil {
			return err
		}
		if _, err := g.Compact(); err != nil {
			return err
		}
		clean, err := countMS(g)
		if err != nil {
			return err
		}
		slowdown = ratio(dirty, clean)
	}
	ms.set("delta.bitmap_loss_slowdown", slowdown, reps)
	return nil
}

// probeServer times a cache hit through the handler alone and over
// loopback, and what the handler adds to a cache miss.
func probeServer(ms metricSet, in graphInput, seed int64) error {
	const hitReps, missReps = 2001, 51
	s, err := bootServer(in, seed)
	if err != nil {
		return err
	}
	defer s.close()
	hit := serveRequest{Kind: kindQueryCached, Path: "/query", Pattern: "P2", Body: queryBody("P2", wireOptions{}, 0)}
	miss := serveRequest{Kind: kindQueryNoCache, Path: "/query", Pattern: "P2", Body: queryBody("P2", wireOptions{Workers: 2, NoCache: true}, 0)}
	warm := &client{m: newMeasurement()}
	if _, ok := warm.send(s, &hit); !ok {
		return fmt.Errorf("warming the probe key: %v", warm.m.failures)
	}
	h := s.srv.Handler()
	serve := func(r *serveRequest) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", r.Path, rec.Code)
		}
		return nil
	}
	handlerHit, err := timeIt(hitReps, func() error { return serve(&hit) })
	if err != nil {
		return err
	}
	loopback, err := timeIt(hitReps, func() error {
		_, _, err := s.do(&hit, 0, false)
		return err
	})
	if err != nil {
		return err
	}
	p2, err := light.PatternByName("P2")
	if err != nil {
		return err
	}
	// The miss through the handler and the same run called directly,
	// alternating, so both see the same machine.
	var viaHandler, direct []float64
	for i := 0; i < missReps; i++ {
		start := time.Now()
		if err := serve(&miss); err != nil {
			return err
		}
		viaHandler = append(viaHandler, float64(time.Since(start)))
		start = time.Now()
		if _, err := light.CountContext(context.Background(), s.g, p2, light.Options{Workers: 2, Governor: s.srv.Governor()}); err != nil {
			return err
		}
		direct = append(direct, float64(time.Since(start)))
	}
	ms.set("server.handler_hit_us", float64(handlerHit)/1e3, hitReps)
	ms.set("server.http_overhead_us", float64(loopback-handlerHit)/1e3, hitReps)
	ms.set("server.handler_miss_overhead_us", (median(viaHandler)-median(direct))/1e3, missReps)
	return nil
}
