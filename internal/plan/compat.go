package plan

import (
	"fmt"
	"strings"
)

// CompatKey returns a canonical string identifying everything about a
// compiled plan that determines its execution shape: pattern adjacency,
// enumeration order π, execution order σ, COMP operands K1/K2, and the
// symmetry-breaking constraints applied at each MAT. Two plans with
// equal keys walk identical search trees over any data graph — the
// per-node COMP results and MAT candidate windows depend only on these
// fields — so their queries can share one bit-parallel lane batch: the
// lanes then differ only in per-lane root sets and assignment filters,
// which the lane mask applies on top of the shared traversal.
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
		fmt.Fprintf(&sb, "u%d:%v|%v,", u, pl.Ops[u].K1, pl.Ops[u].K2)
	}
	sb.WriteString(";con=")
	for i, cs := range pl.MatConstraints {
		if len(cs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "s%d:", i)
		for _, c := range cs {
			fmt.Fprintf(&sb, "%d/%t,", c.Other, c.Lower)
		}
	}
	return sb.String()
}
