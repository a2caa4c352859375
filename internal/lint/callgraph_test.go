package lint_test

import (
	"fmt"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"light/internal/lint"
)

// edgeStrings renders a node's outgoing edges as "callee [kind]" in
// source order, with package paths trimmed for readable assertions.
func edgeStrings(g *lint.CallGraph, fn *types.Func) []string {
	var out []string
	for _, e := range g.Node(fn).Out {
		name := e.Callee.FullName()
		name = strings.ReplaceAll(name, "fixture/callgraph.", "")
		out = append(out, fmt.Sprintf("%s [%s]", name, e.Kind))
	}
	return out
}

// findFunc locates a function by name inside the callgraph fixture
// package (methods match on "Type.Name").
func findFunc(t *testing.T, g *lint.CallGraph, name string) *types.Func {
	t.Helper()
	for _, fn := range g.Funcs() {
		if fn.Pkg() == nil || fn.Pkg().Path() != "fixture/callgraph" {
			continue
		}
		id := fn.Name()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				id = named.Obj().Name() + "." + fn.Name()
			}
		}
		if id == name {
			return fn
		}
	}
	t.Fatalf("function %s not found in fixture/callgraph", name)
	return nil
}

func TestCallGraphEdges(t *testing.T) {
	m := loadFixtures(t)
	g := m.CallGraph()
	cases := []struct {
		fn   string
		want []string
	}{
		// Bound method value on a concrete receiver: a reference edge.
		{"Pick", []string{"(Square).Area [ref]"}},
		// Dynamic call through a function value: no edges.
		{"Apply", nil},
		// Static call plus a function reference passed as a value.
		{"Use", []string{"Apply [call]", "double [ref]"}},
		// Direct recursion.
		{"Fact", []string{"Fact [call]"}},
		// Mutual recursion.
		{"IsEven", []string{"isOdd [call]"}},
		{"isOdd", []string{"IsEven [call]"}},
	}
	for _, c := range cases {
		fn := findFunc(t, g, c.fn)
		got := edgeStrings(g, fn)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: edges = %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestCallGraphReachable(t *testing.T) {
	m := loadFixtures(t)
	g := m.CallGraph()
	use := findFunc(t, g, "Use")
	apply := findFunc(t, g, "Apply")
	double := findFunc(t, g, "double")
	fact := findFunc(t, g, "Fact")

	calls := g.Reachable([]*types.Func{use}, lint.EdgeCall, nil)
	if !calls[apply] {
		t.Error("Apply not reachable from Use over call edges")
	}
	if calls[double] {
		t.Error("double reachable from Use over call edges; the reference is not a static call")
	}
	all := g.Reachable([]*types.Func{use}, lint.EdgeAll, nil)
	if !all[double] {
		t.Error("double not reachable from Use over all edge kinds")
	}
	if all[fact] {
		t.Error("Fact reachable from Use; graphs are leaking edges")
	}
}

// TestCallGraphDeterminism loads the fixture module twice from disk and
// requires both call graphs to dump identical edge lists.
func TestCallGraphDeterminism(t *testing.T) {
	dump := func() []string {
		paths := make([]string, 0, len(fixturePkgs))
		dirs := map[string]string{}
		for _, name := range fixturePkgs {
			path := "fixture/" + name
			paths = append(paths, path)
			dirs[path] = filepath.Join("testdata", "src", name)
		}
		m, err := lint.LoadDirs("fixture", paths, dirs)
		if err != nil {
			t.Fatalf("loading fixtures: %v", err)
		}
		g := m.CallGraph()
		var out []string
		for _, e := range g.Edges() {
			pos := m.Fset.Position(e.Site)
			out = append(out, fmt.Sprintf("%s -> %s [%s] at %s:%d:%d",
				e.Caller.FullName(), e.Callee.FullName(), e.Kind,
				filepath.Base(pos.Filename), pos.Line, pos.Column))
		}
		return out
	}
	first, second := dump(), dump()
	if len(first) == 0 {
		t.Fatal("call graph has no edges")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("two builds differ:\nfirst:  %d edges\nsecond: %d edges", len(first), len(second))
	}
}
