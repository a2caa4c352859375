package plan

import (
	"fmt"
	"strings"

	"light/internal/estimate"
)

// Explain renders the plan the way a database EXPLAIN would: the
// enumeration order, the execution order with per-operation detail
// (operands for COMP, the ones it probes through marks and the window
// its pushed constraints cut them to; symmetry and injectivity checks
// for MAT) and the cost walk's estimated reach and cost of each
// step under stats, and the anchor/free structure. Marks are printed
// whatever the kernel; only a bitmap kernel runs them.
func (pl *Plan) Explain(stats estimate.GraphStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s\n", pl.Pattern.Name())
	fmt.Fprintf(&sb, "  enumeration order π: %s\n", vertexList(pl.Pi))
	if !pl.PO.Empty() {
		fmt.Fprintf(&sb, "  symmetry breaking:   %s\n", pl.PO)
	} else {
		sb.WriteString("  symmetry breaking:   (trivial automorphism group)\n")
	}
	fmt.Fprintf(&sb, "  lazy: %v, per-path intersections w: %d\n", pl.Lazy(), pl.WTotal())
	sb.WriteString("  execution order σ, with the cost walk's estimated reach and COMP elements:\n")
	steps := make([]step, len(pl.Sigma))
	pl.walk(stats, orderFractions(pl.PO, pl.Pattern.NumVertices()), steps)
	var comp, mat float64
	marked := false
	for i, op := range pl.Sigma {
		st := steps[i]
		fmt.Fprintf(&sb, "    %2d. %-4s u%d  %9.3g", i, op.Mode, op.Vertex, st.reach)
		switch op.Mode {
		case Comp:
			comp += st.cost
			o := pl.Ops[op.Vertex]
			var parts []string
			for _, w := range o.K1 {
				parts = append(parts, fmt.Sprintf("N(φ(u%d))", w))
			}
			for _, w := range o.K2 {
				parts = append(parts, fmt.Sprintf("C(u%d)", w))
			}
			fmt.Fprintf(&sb, " %9.3g  ← %s", st.cost, strings.Join(parts, " ∩ "))
			if o.W() == 0 {
				sb.WriteString("  (aliased, 0 intersections)")
			}
			if m := pl.Marks[op.Vertex]; m != 0 {
				fmt.Fprintf(&sb, "  marks %s", maskList(m))
				marked = true
			}
			if cs := pl.Push[op.Vertex]; len(cs) > 0 {
				fmt.Fprintf(&sb, "  cut to %s", bounds("", cs))
			}
		case Mat:
			mat += st.cost
			pad := "            "
			if cs := pl.MatConstraints[i]; len(cs) > 0 {
				fmt.Fprintf(&sb, "%srequire %s", pad, bounds("v ", cs))
				pad = "  "
			}
			if d := pl.Distinct[i]; d != 0 {
				fmt.Fprintf(&sb, "%sdistinct from %s", pad, maskList(d))
			}
		}
		sb.WriteByte('\n')
	}
	if marked {
		sb.WriteString("  marks run under a bitmap kernel only; a list kernel intersects every operand\n")
	}
	sb.WriteString("  anchors/free:\n")
	for pos := 1; pos < len(pl.Pi); pos++ {
		u := pl.Pi[pos]
		fmt.Fprintf(&sb, "    u%d: A=%s F=%s\n", u, maskList(pl.Anchors[u]), maskList(pl.Free[u]))
	}
	fmt.Fprintf(&sb, "  estimated cost: %.4g = %.4g COMP elements + %.4g MAT nodes\n", comp+mat, comp, mat)
	return sb.String()
}

// bounds renders constraints as "> φ(u0), < φ(u3)", each after prefix.
func bounds(prefix string, cs []Constraint) string {
	parts := make([]string, len(cs))
	for k, c := range cs {
		op := "<"
		if c.Lower {
			op = ">"
		}
		parts[k] = fmt.Sprintf("%s%s φ(u%d)", prefix, op, c.Other)
	}
	return strings.Join(parts, ", ")
}

func vertexList(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("u%d", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func maskList(m uint32) string {
	if m == 0 {
		return "∅"
	}
	var parts []string
	for _, v := range maskVertices(m) {
		parts = append(parts, fmt.Sprintf("u%d", v))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
