package pattern

import (
	"math/bits"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 0, nil); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := New("bad", MaxVertices+1, nil); err == nil {
		t.Error("accepted oversized pattern")
	}
	if _, err := New("bad", 2, [][2]Vertex{{0, 0}}); err == nil {
		t.Error("accepted self-loop")
	}
	if _, err := New("bad", 2, [][2]Vertex{{0, 5}}); err == nil {
		t.Error("accepted out-of-range edge")
	}
	p, err := New("dup", 2, [][2]Vertex{{0, 1}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 1 {
		t.Errorf("duplicate edges kept: m=%d", p.NumEdges())
	}
}

func TestBasicAccessors(t *testing.T) {
	p := P2()
	if p.NumVertices() != 4 || p.NumEdges() != 5 {
		t.Fatalf("P2 shape wrong: %v", p)
	}
	if !p.HasEdge(0, 2) || !p.HasEdge(2, 0) {
		t.Error("chord missing")
	}
	if p.HasEdge(1, 3) {
		t.Error("phantom edge 1-3")
	}
	if p.Degree(0) != 3 || p.Degree(1) != 2 {
		t.Errorf("degrees wrong: d(0)=%d d(1)=%d", p.Degree(0), p.Degree(1))
	}
	ns := p.Neighbors(0)
	if len(ns) != 3 || ns[0] != 1 || ns[1] != 2 || ns[2] != 3 {
		t.Errorf("Neighbors(0) = %v", ns)
	}
	if len(p.Edges()) != 5 {
		t.Errorf("Edges() = %v", p.Edges())
	}
	// The structure key spells n and the adjacency masks as given: the
	// name does not enter it, the vertex numbering does.
	if got := p.StructureKey(); got != "n=4;adj=e,5,b,5," {
		t.Errorf("StructureKey() = %q", got)
	}
	renamed := MustNew("other", 4, [][2]Vertex{{0, 2}, {3, 0}, {2, 3}, {1, 2}, {0, 1}})
	relabelled := MustNew("other", 4, [][2]Vertex{{1, 2}, {2, 3}, {3, 0}, {0, 1}, {1, 3}})
	if renamed.StructureKey() != p.StructureKey() || relabelled.StructureKey() == p.StructureKey() {
		t.Errorf("StructureKey: renamed %q, relabelled %q, P2 %q", renamed.StructureKey(), relabelled.StructureKey(), p.StructureKey())
	}
}

func TestConnectivity(t *testing.T) {
	if !P1().IsConnected() {
		t.Error("square should be connected")
	}
	disc := MustNew("disc", 4, [][2]Vertex{{0, 1}, {2, 3}})
	if disc.IsConnected() {
		t.Error("disconnected pattern reported connected")
	}
	// Induced subgraph connectivity.
	p := P4()                         // house
	if !p.InducedConnected(0b00011) { // {u0,u1}: edge
		t.Error("{u0,u1} should be connected")
	}
	if p.InducedConnected(0b01100) { // {u2,u3}: edge 2-3 exists... check
		// u2-u3 IS an edge of the house; this mask is connected.
	}
	if !p.InducedConnected(0b01100) {
		t.Error("{u2,u3} should be connected (edge 2-3)")
	}
	if p.InducedConnected(0b10100) { // {u2,u4}: no edge
		t.Error("{u2,u4} should be disconnected")
	}
	if !p.InducedConnected(0) {
		t.Error("empty mask should be connected")
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want int
	}{
		{Triangle(), 6}, // S3
		{P1(), 8},       // dihedral D4
		{P2(), 4},       // swap u1<->u3, swap u0<->u2
		{P3(), 24},      // S4
		{P4(), 2},       // mirror
		{P5(), 4},       // ladder: horizontal/vertical mirrors
		{P6(), 8},       // K5 minus 2-matching: swap within each pair × swap the pairs
		{P7(), 120},     // S5
		{Path(4), 2},    // reversal
		{Cycle(5), 10},  // D5
		{StarPattern(3), 6} /* leaves permute */}
	for _, c := range cases {
		got := len(c.p.Automorphisms())
		if got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.p.Name(), got, c.want)
		}
	}
}

func TestAutomorphismsAreAutomorphisms(t *testing.T) {
	for _, p := range Catalog() {
		for _, a := range p.Automorphisms() {
			for u := 0; u < p.NumVertices(); u++ {
				for v := u + 1; v < p.NumVertices(); v++ {
					if p.HasEdge(u, v) != p.HasEdge(a[u], a[v]) {
						t.Fatalf("%s: %v is not an automorphism", p.Name(), a)
					}
				}
			}
		}
	}
}

func TestSymmetryBreakingIdentityOnly(t *testing.T) {
	// A pattern with trivial Aut: path of 3 with a pendant triangle —
	// build an asymmetric graph: 0-1,1-2,2-3,1-3 ("paw").
	paw := MustNew("paw", 4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {1, 3}})
	if got := len(paw.Automorphisms()); got != 2 {
		t.Fatalf("paw |Aut| = %d, want 2 (swap 2,3)", got)
	}
	po := SymmetryBreaking(paw)
	pairs := po.Pairs()
	if len(pairs) != 1 || pairs[0] != [2]Vertex{2, 3} {
		t.Fatalf("paw partial order = %v, want [2<3]", po)
	}
}

// checkBreaksAllAutomorphisms verifies the Grochow–Kellis guarantee
// directly: for every non-identity automorphism a there must exist a
// constraint (u < v) with a mapping that inverts it on some concrete
// assignment — equivalently, among all automorphic images of any injective
// assignment, exactly one satisfies the partial order. We verify the
// "exactly one" property on a canonical assignment φ(u_i) = i and all its
// automorphic images.
func checkBreaksAllAutomorphisms(t *testing.T, p *Pattern) {
	t.Helper()
	po := SymmetryBreaking(p)
	auts := p.Automorphisms()
	satisfied := 0
	for _, a := range auts {
		// Image assignment: vertex u is mapped to data vertex a^{-1}(u)?
		// Use φ_a(u) = position of u under a: data value a[u].
		ok := true
		for u := 0; u < p.NumVertices(); u++ {
			for m := po.Less[u]; m != 0; m &= m - 1 {
				v := bits.TrailingZeros32(m)
				if a[u] >= a[v] {
					ok = false
				}
			}
		}
		if ok {
			satisfied++
		}
	}
	if satisfied != 1 {
		t.Errorf("%s: %d automorphic images satisfy the partial order, want exactly 1 (po=%v, |Aut|=%d)",
			p.Name(), satisfied, po, len(auts))
	}
}

func TestSymmetryBreakingBreaksAll(t *testing.T) {
	pats := Catalog()
	pats = append(pats, Triangle(), Path(4), Path(5), Cycle(5), Cycle(6),
		StarPattern(3), StarPattern(4), Clique(3), Clique(6))
	for _, p := range pats {
		checkBreaksAllAutomorphisms(t, p)
	}
}

func TestPartialOrderString(t *testing.T) {
	po := SymmetryBreaking(Triangle())
	if po.Empty() {
		t.Fatal("triangle needs constraints")
	}
	if s := po.String(); s == "∅" || s == "" {
		t.Fatalf("String = %q", s)
	}
	pawless := SymmetryBreaking(MustNew("asym", 6, [][2]Vertex{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}, {1, 4}, {0, 2},
	}))
	_ = pawless
}

func TestCatalogShapes(t *testing.T) {
	want := []struct{ n, m int }{
		{4, 4}, {4, 5}, {4, 6}, {5, 6}, {6, 7}, {5, 8}, {5, 10},
	}
	cat := Catalog()
	maxN := 0
	for i, p := range cat {
		if p.NumVertices() != want[i].n || p.NumEdges() != want[i].m {
			t.Errorf("P%d: n=%d m=%d, want n=%d m=%d", i+1, p.NumVertices(), p.NumEdges(), want[i].n, want[i].m)
		}
		if !p.IsConnected() {
			t.Errorf("P%d disconnected", i+1)
		}
		if p.NumVertices() > maxN {
			maxN = p.NumVertices()
		}
	}
	if cat[4].NumVertices() != maxN {
		t.Error("P5 must have the most vertices (Table V note)")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"P1", "P7", "triangle", "square", "cycle5", "path4", "clique4", "star3"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "P8", "clique2", "cycle99", "blah"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q): expected error", name)
		}
	}
}
