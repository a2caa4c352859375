package bfsjoin

import (
	"fmt"
	"time"

	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
)

// Crystal simulates the CRYSTAL distributed algorithm: materialize the
// matches of a minimum connected vertex cover (the core) and attach each
// remaining vertex (a bud) as a compressed candidate set per core tuple —
// the factorized "crystal" representation that shrinks intermediates
// relative to SEED. The final count expands the compression analytically
// with inclusion–exclusion over bud collisions.
func Crystal(g *graph.Graph, p *pattern.Pattern, opts Options) (Result, error) {
	t := NewTracker(opts)
	res := Result{}

	core := minConnectedVertexCover(p)
	var buds []pattern.Vertex
	inCore := map[pattern.Vertex]bool{}
	for _, v := range core {
		inCore[v] = true
	}
	for v := 0; v < p.NumVertices(); v++ {
		if !inCore[v] {
			buds = append(buds, v)
		}
	}
	res.Units = append(res.Units, fmt.Sprintf("core%v", core))
	for _, b := range buds {
		res.Units = append(res.Units, fmt.Sprintf("bud[%d]", b))
	}

	// Core unit: the induced subgraph on the cover.
	coreUnit := unit{kind: "core", vertices: core}
	for i := 0; i < len(core); i++ {
		for j := i + 1; j < len(core); j++ {
			if p.HasEdge(core[i], core[j]) {
				coreUnit.edges = append(coreUnit.edges, orderedEdge(core[i], core[j]))
			}
		}
	}
	coreRel, err := materialize(g, coreUnit, t)
	if err != nil {
		return finishResult(res, t), err
	}
	// Charge the compressed bud references: one candidate-set handle
	// (offset + length, 8 bytes) per bud per core tuple. This is the
	// compression CRYSTAL trades shuffle volume for.
	budRefBytes := int64(len(coreRel.Tuples)) * int64(len(buds)) * 8
	if err := t.ChargeBytes(budRefBytes, int64(len(coreRel.Tuples))*int64(len(buds))); err != nil {
		return finishResult(res, t), err
	}

	// Index of core vertices inside the relation tuples.
	corePos := map[pattern.Vertex]int{}
	for i, v := range coreRel.Vertices {
		corePos[v] = i
	}

	// Expand analytically per core tuple.
	dmax := g.MaxDegree()
	buf1 := make([]graph.VertexID, dmax)
	buf2 := make([]graph.VertexID, dmax)
	var total uint64
	aut := uint64(len(p.Automorphisms()))
	for ti, tup := range coreRel.Tuples {
		if ti&1023 == 0 {
			if err := t.CheckTime(); err != nil {
				return finishResult(res, t), err
			}
		}
		total += countBudAssignments(g, p, buds, corePos, tup, buf1, buf2)
	}
	res.Matches = total / aut
	out := finishResult(res, t)
	if opts.Sleep && out.ShuffleTime > 0 {
		time.Sleep(out.ShuffleTime)
	}
	return out, nil
}

// countBudAssignments counts injective assignments of the buds given one
// core tuple: each bud's candidate set is the intersection of its core
// neighbors' adjacency lists minus the core values; collisions between
// buds are removed by inclusion–exclusion over set partitions
// (Σ_partitions Π_blocks (-1)^{|B|-1}(|B|-1)!·|∩_{i∈B} C_i \ core|).
func countBudAssignments(g *graph.Graph, p *pattern.Pattern, buds []pattern.Vertex,
	corePos map[pattern.Vertex]int, tup []graph.VertexID, buf1, buf2 []graph.VertexID) uint64 {
	k := len(buds)
	if k == 0 {
		return 1
	}
	// blockCount[mask] = |∩_{i in mask} C_i \ coreValues| for every
	// non-empty subset of buds.
	blockCount := make([]int64, 1<<uint(k))
	for mask := 1; mask < 1<<uint(k); mask++ {
		var sets [][]graph.VertexID
		for i := 0; i < k; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for _, w := range p.Neighbors(buds[i]) {
				sets = append(sets, g.Neighbors(tup[corePos[w]]))
			}
		}
		n := intersect.MultiWay(buf1, buf2, sets, nil, intersect.KindHybrid, intersect.DefaultDelta, nil)
		cnt := int64(n)
		for _, cv := range tup {
			if intersect.Contains(buf1[:n], cv) {
				cnt--
			}
		}
		blockCount[mask] = cnt
	}
	// Sum over set partitions of the buds.
	var total int64
	var rec func(remaining uint32, product int64, sign int64)
	rec = func(remaining uint32, product, sign int64) {
		if remaining == 0 {
			total += sign * product
			return
		}
		first := remaining & -remaining
		rest := remaining &^ first
		// Enumerate blocks containing `first`: first ∪ (subset of rest).
		for sub := rest; ; sub = (sub - 1) & rest {
			block := first | sub
			size := popcount32(block)
			w := factorial(size - 1)
			s := sign
			if size%2 == 0 {
				s = -s
			}
			rec(remaining&^block, product*blockCount[block], s*w)
			if sub == 0 {
				break
			}
		}
	}
	rec(uint32(1<<uint(k))-1, 1, 1)
	if total < 0 {
		return 0 // numerically impossible, but guard division semantics
	}
	return uint64(total)
}

func orderedEdge(a, b pattern.Vertex) [2]pattern.Vertex {
	if a > b {
		a, b = b, a
	}
	return [2]pattern.Vertex{a, b}
}

func popcount32(x uint32) int64 {
	var n int64
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func factorial(n int64) int64 {
	f := int64(1)
	for i := int64(2); i <= n; i++ {
		f *= i
	}
	return f
}
