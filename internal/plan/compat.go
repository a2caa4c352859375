package plan

import (
	"fmt"
	"strings"
)

// CompatKey returns a canonical string identifying everything about a
// compiled plan that determines its execution shape: pattern adjacency,
// enumeration order π, execution order σ, COMP operands K1/K2 and the
// ones probed through marks, the symmetry-breaking constraints applied
// at each MAT or pushed into each COMP, and each MAT's injectivity
// mask. Two plans with equal keys walk identical search trees over any
// data graph — the per-node COMP results and MAT candidate windows
// depend only on these fields — and do identical
// intersection work at each node, so their queries can share one
// bit-parallel lane batch: the lanes then differ only in per-lane root
// sets and assignment filters, which the lane mask applies on top of the
// shared traversal. Marks are in the key because a batch runs one plan's
// marks for every lane, and a lane's counters must be its solo run's.
//
// Deliberately excluded: the pattern's name (cosmetic), and engine
// options like the intersection kernel (batch-wide, fixed by the
// executor, and irrelevant to which tree is walked).
func (pl *Plan) CompatKey() string {
	var sb strings.Builder
	sb.WriteString(pl.Pattern.StructureKey())
	sb.WriteString(";pi=")
	for _, u := range pl.Pi {
		fmt.Fprintf(&sb, "%d,", u)
	}
	sb.WriteString(";sigma=")
	for _, op := range pl.Sigma {
		fmt.Fprintf(&sb, "%s%d,", op.Mode, op.Vertex)
	}
	sb.WriteString(";ops=")
	for u := range pl.Ops {
		fmt.Fprintf(&sb, "u%d:%v|%v|%s,", u, pl.Ops[u].K1, pl.Ops[u].K2, maskList(pl.Marks[u]))
	}
	sb.WriteString(";con=")
	for i, cs := range pl.MatConstraints {
		fmt.Fprintf(&sb, "s%d:%s", i, maskList(pl.Distinct[i]))
		writeConstraints(&sb, cs)
	}
	sb.WriteString(";push=")
	for u, cs := range pl.Push {
		fmt.Fprintf(&sb, "u%d:", u)
		writeConstraints(&sb, cs)
	}
	return sb.String()
}

func writeConstraints(sb *strings.Builder, cs []Constraint) {
	for _, c := range cs {
		fmt.Fprintf(sb, "%d/%t,", c.Other, c.Lower)
	}
}
