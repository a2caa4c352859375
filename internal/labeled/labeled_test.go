package labeled

import (
	"testing"

	"light/internal/gen"
	"light/internal/pattern"
)

// The count, enumerate and filter oracles run through the public API
// (labeled_api_test.go in the repository root), where labeled queries
// are planned and executed.

func mustPattern(t *testing.T, p *pattern.Pattern, labels []Label) *Pattern {
	t.Helper()
	lp, err := NewPattern(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

func TestValidation(t *testing.T) {
	g := gen.Complete(4)
	if _, err := NewGraph(g, []Label{0, 1}); err == nil {
		t.Error("short label slice accepted")
	}
	if _, err := NewPattern(pattern.Triangle(), []Label{0}); err == nil {
		t.Error("short pattern labels accepted")
	}
}

func TestLabelPreservingAutomorphisms(t *testing.T) {
	// Triangle with labels (0,0,1): only the swap of the two 0-vertices
	// survives.
	p := mustPattern(t, pattern.Triangle(), []Label{0, 0, 1})
	if got := len(p.Automorphisms()); got != 2 {
		t.Fatalf("|Aut_L| = %d, want 2", got)
	}
	po := p.SymmetryBreaking()
	if pairs := po.Pairs(); len(pairs) != 1 || pairs[0] != [2]pattern.Vertex{0, 1} {
		t.Fatalf("partial order = %v, want [0<1]", po)
	}
	// All distinct labels: trivial group, no constraints.
	p2 := mustPattern(t, pattern.Triangle(), []Label{0, 1, 2})
	if len(p2.Automorphisms()) != 1 || !p2.SymmetryBreaking().Empty() {
		t.Fatal("distinct labels should kill all symmetry")
	}
}
