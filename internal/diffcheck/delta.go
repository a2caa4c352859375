package diffcheck

import (
	"fmt"
	"math/rand"
	"strings"

	"light"
	"light/internal/delta"
	"light/internal/engine"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/plan"
)

// checkDelta is the edge-delta oracle: rebuild the case through the
// public API, apply a seed-derived mutation batch (a few inserts, a few
// deletes of existing edges), and demand that
//
//   - the pre-mutation count through a pinned snapshot equals the
//     brute-force reference (counting is isomorphism-invariant, so the
//     relabeling NewGraph applies changes nothing);
//   - the overlay count equals a fresh CSR rebuilt from the mutated
//     adjacency (the copy-on-write read path hides no edges and invents
//     none);
//   - CountDelta satisfies count(to) == count(from) + Net, and swapping
//     the snapshots mirrors gained/lost exactly;
//   - Gained and Lost each equal the brute-force reference — the
//     subgraphs of `to` (of `from`) whose image holds an added (a
//     removed) edge — so compensating errors cannot hide inside Net;
//   - compaction does not change the count.
//
// The batch is a pure function of Case.Seed, so the shrinker re-derives
// it when it rebuilds a reduced case — no extra state to carry.
func checkDelta(c Case, want uint64, cfg Config) *Discrepancy {
	fail := func(stage string, wantN, got uint64, detail string) *Discrepancy {
		return &Discrepancy{Case: c, Stage: stage, Want: wantN, Got: got, Detail: detail}
	}

	pairs := make([][2]light.VertexID, len(c.GraphEdges))
	for i, e := range c.GraphEdges {
		pairs[i] = [2]light.VertexID{light.VertexID(e[0]), light.VertexID(e[1])}
	}
	lg := light.NewGraph(c.GraphN, pairs)
	p, err := light.NewPattern("case", c.PatternN, c.PatternEdges)
	if err != nil {
		return fail("delta/pattern", want, 0, err.Error())
	}

	from := lg.Snapshot()
	cFrom, err := light.Count(lg, p, light.Options{Snapshot: from, Workers: cfg.Workers})
	if err != nil {
		return fail("delta/base-count", want, 0, err.Error())
	}
	if cFrom.Matches != want {
		return fail("delta/base-count", want, cFrom.Matches, "pre-mutation count disagrees with reference")
	}

	add, rem, existing := deltaBatch(c.Seed, lg.NumVertices(), lg.Neighbors)
	to, err := lg.ApplyEdges(add, rem)
	if err != nil {
		return fail("delta/apply", want, 0, err.Error())
	}
	cTo, err := light.Count(lg, p, light.Options{Snapshot: to, Workers: cfg.Workers})
	if err != nil {
		return fail("delta/overlay-count", want, 0, err.Error())
	}

	// Fresh rebuild: read the mutated adjacency back through the public
	// accessors (the head is `to` now) and count on a clean CSR.
	var mutated [][2]light.VertexID
	for u := 0; u < to.NumVertices(); u++ {
		for _, v := range lg.Neighbors(light.VertexID(u)) {
			if int(v) > u {
				mutated = append(mutated, [2]light.VertexID{light.VertexID(u), v})
			}
		}
	}
	fresh := light.NewGraph(to.NumVertices(), mutated)
	cFresh, err := light.Count(fresh, p, light.Options{})
	if err != nil {
		return fail("delta/rebuild", want, 0, err.Error())
	}
	if cFresh.Matches != cTo.Matches {
		return fail("delta/rebuild", cFresh.Matches, cTo.Matches,
			fmt.Sprintf("overlay count disagrees with fresh CSR rebuild (batch: +%d -%d)", len(add), len(rem)))
	}

	dr, err := light.CountDelta(lg, p, from, to, light.Options{Workers: cfg.Workers})
	if err != nil {
		return fail("delta/count-delta", want, 0, err.Error())
	}
	if int64(cTo.Matches) != int64(cFrom.Matches)+dr.Net {
		return fail("delta/identity", cTo.Matches, cFrom.Matches,
			fmt.Sprintf("count(from)=%d + net %d != count(to)=%d (gained %d, lost %d, %d added / %d removed edges)",
				cFrom.Matches, dr.Net, cTo.Matches, dr.Gained, dr.Lost, dr.AddedEdges, dr.RemovedEdges))
	}
	wantGained, wantLost, capped := referenceDelta(to.NumVertices(), existing, mutated, c, cfg.MaxEmbeddings)
	if !capped && (dr.Gained != wantGained || dr.Lost != wantLost) {
		return fail("delta/gained-lost", wantGained, dr.Gained,
			fmt.Sprintf("gained %d lost %d, reference gained %d lost %d (%d added / %d removed edges)",
				dr.Gained, dr.Lost, wantGained, wantLost, dr.AddedEdges, dr.RemovedEdges))
	}
	rev, err := light.CountDelta(lg, p, to, from, light.Options{Workers: cfg.Workers})
	if err != nil {
		return fail("delta/reversed", want, 0, err.Error())
	}
	if rev.Net != -dr.Net || rev.Gained != dr.Lost || rev.Lost != dr.Gained {
		return fail("delta/reversed", cTo.Matches, cFrom.Matches,
			fmt.Sprintf("reversed delta (net %d, gained %d, lost %d) does not mirror forward (net %d, gained %d, lost %d)",
				rev.Net, rev.Gained, rev.Lost, dr.Net, dr.Gained, dr.Lost))
	}

	if _, err := lg.Compact(); err != nil {
		return fail("delta/compact", want, 0, err.Error())
	}
	cComp, err := light.Count(lg, p, light.Options{})
	if err != nil {
		return fail("delta/compacted-count", want, 0, err.Error())
	}
	if cComp.Matches != cTo.Matches {
		return fail("delta/compacted-count", cTo.Matches, cComp.Matches, "compaction changed the count")
	}
	return nil
}

// deltaBatch derives the mutation batch from the case seed over an
// n-vertex graph: up to five random pairs added (two IDs past the
// current range, so vertex growth is exercised) and up to three
// existing edges removed. existing is every edge of the graph, u < v.
func deltaBatch(seed int64, n int, neighbors func(light.VertexID) []light.VertexID) (add, rem, existing [][2]light.VertexID) {
	rng := rand.New(rand.NewSource(seed ^ 0x0de17a))
	for i := 0; i < 5; i++ {
		u, v := light.VertexID(rng.Intn(n+2)), light.VertexID(rng.Intn(n+2))
		if u == v {
			continue
		}
		add = append(add, [2]light.VertexID{u, v})
	}
	for u := 0; u < n; u++ {
		for _, v := range neighbors(light.VertexID(u)) {
			if int(v) > u {
				existing = append(existing, [2]light.VertexID{light.VertexID(u), v})
			}
		}
	}
	for i := 0; i < 3 && len(existing) > 0; i++ {
		rem = append(rem, existing[rng.Intn(len(existing))])
	}
	return add, rem, existing
}

// checkOverlay is the engine-level edge-delta oracle on RunCase's own
// graph, whose seed-derived τ indexes hubs the public API's graphs
// never have at case size: the seed-derived batch goes through
// delta.Apply, and the engine counts the overlay view with HybridBitmap
// — probing the bitmaps the overlay rebuilt for touched hubs — both
// count-only and through the visitor loop. Each must equal a count on a
// CSR materialized from the overlay's adjacency with the same ids, and
// every plan given must expand the first one's nodes.
func checkOverlay(c Case, g *graph.Graph, plans ...*plan.Plan) *Discrepancy {
	fail := func(want, got uint64, detail string) *Discrepancy {
		return &Discrepancy{Case: c, Stage: "delta/overlay-engine", Want: want, Got: got, Detail: detail}
	}
	add, rem, _ := deltaBatch(c.Seed, g.NumVertices(), g.Neighbors)
	toEdges := func(ps [][2]light.VertexID) []delta.Edge {
		es := make([]delta.Edge, len(ps))
		for i, e := range ps {
			es[i] = delta.Edge{U: e[0], V: e[1]}
		}
		return es
	}
	ov, err := delta.Apply(g, nil, toEdges(add), toEdges(rem))
	if err != nil {
		return fail(0, 0, err.Error())
	}
	if ov == nil {
		return nil // the batch changed nothing
	}
	b := graph.NewBuilder(ov.NumVertices())
	for u := 0; u < ov.NumVertices(); u++ {
		for _, v := range ov.Neighbors(graph.VertexID(u)) {
			if int(v) > u {
				b.AddEdge(graph.VertexID(u), v)
			}
		}
	}
	ref, err := engine.New(b.Build(), plans[0], engine.Options{}).Run(nil)
	if err != nil {
		return fail(0, 0, err.Error())
	}
	opts := engine.Options{Kernel: intersect.KindHybridBitmap, Overlay: ov}
	for _, visit := range []engine.VisitFunc{nil, func([]graph.VertexID) bool { return true }} {
		var nodes uint64
		for i, pl := range plans {
			res, err := engine.New(g, pl, opts).Run(visit)
			if err != nil {
				return fail(ref.Matches, 0, err.Error())
			}
			if res.Matches != ref.Matches {
				return fail(ref.Matches, res.Matches,
					fmt.Sprintf("overlay count of plan %d disagrees with materialized CSR (visitor %v, batch: +%d -%d)", i, visit != nil, len(add), len(rem)))
			}
			if i == 0 {
				nodes = res.Nodes
			} else if res.Nodes != nodes {
				return fail(nodes, res.Nodes, fmt.Sprintf("plan %d expanded %d overlay nodes, plan 0 %d (visitor %v)", i, res.Nodes, nodes, visit != nil))
			}
		}
	}
	return nil
}

// referenceDelta is the brute-force Gained/Lost: the reference matcher
// collects the distinct subgraph images of the pattern in the `to` and
// `from` adjacency, and a subgraph is gained (lost) iff its image holds
// an edge of to−from (from−to). It shares nothing with the engine or
// with CountDelta's anchored search. capped reports that the embedding
// cap cut a reference short, in which case the numbers mean nothing.
func referenceDelta(n int, from, to [][2]light.VertexID, c Case, limit uint64) (gained, lost uint64, capped bool) {
	touching := func(view, other [][2]light.VertexID) (uint64, bool) {
		in := make(map[[2]light.VertexID]bool, len(other))
		for _, e := range other {
			in[e] = true
		}
		edges := make([][2]uint32, len(view))
		var changed []string
		for i, e := range view {
			edges[i] = [2]uint32{e[0], e[1]}
			if !in[e] {
				changed = append(changed, fmt.Sprintf("%d-%d;", e[0], e[1]))
			}
		}
		ref := countEmbeddings(n, edges, c.PatternN, c.PatternEdges, limit, true)
		var hits uint64
		for key := range ref.Keys {
			for _, e := range changed {
				// Image keys are "u-v;" entries back to back: match a
				// whole entry, never the tail of a longer vertex id.
				if strings.HasPrefix(key, e) || strings.Contains(key, ";"+e) {
					hits++
					break
				}
			}
		}
		return hits, ref.Capped
	}
	gained, gCapped := touching(to, from)
	lost, lCapped := touching(from, to)
	return gained, lost, gCapped || lCapped
}
