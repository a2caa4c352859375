// Package lint is the reusable core of cmd/lightvet, a project-specific
// static-analysis suite for the LIGHT engine. It is built purely on the
// standard library's go/ast, go/parser and go/types (no x/tools
// dependency, honoring the repo's stdlib-only constraint).
//
// The suite is interprocedural: a static call graph over the loaded
// module (see CallGraph) plus small shared dataflow helpers back the
// analyzers that reason across function boundaries.
//
// Each rule is kept because it catches a bug shape this repo shipped,
// which neither go vet nor the owning package's tests catch; the
// matching row of TestMutationsAgainstRealTree re-creates that shape in
// a copy of the real tree and requires the finding:
//
//   - hotpath: functions annotated //light:hotpath — and every module
//     function they statically call, transitively over the call
//     graph — must stay allocation-free: no make/new, no heap composite
//     literals, no closures, no fmt calls, no interface boxing, and no
//     append into buffers that were not visibly preallocated. Row: PR
//     1's closure predicate in engine.lowerBound.
//   - indexsafety: 32-bit narrowing conversions and 32-bit arithmetic
//     in the CSR graph package, where int32/uint32 overflow is a real
//     failure mode at production graph scale. Row: PR 1's uint32
//     offsets[v+1] in graph.Degree.
//   - hygiene: silently discarded error returns, and in command mains
//     fmt.Fprint* into fallible buffered writers. Rows: PR 1's
//     unchecked Close in graph.SaveCSR, and PR 1's unacknowledged
//     Fprintf into lightenum's bufio match writer.
//   - statflow: counter parity — paths through the intersect kernels
//     must thread the *intersect.Stats parameter; a dropped, shadowed,
//     or missing stats argument silently corrupts the per-run counters
//     the bench gate and run reports compare. Row: PR 5 bug #1's
//     dropped Stats, in intersect.HybridBlock.
//   - cancelpoll: any data-dependent loop reachable from the public
//     Count/Enumerate entry points that can reach a cancellation poll
//     must reach one on every iteration path, so cancellation latency
//     stays bounded by one iteration. Row: PR 4 bug #1's reject placed
//     before the poll, in the engine's MAT loop.
//   - capcontract: a copy or cap-extending reslice of a caller-supplied
//     slice needs a checked cap/len guard or an explicit
//     //light:cap-contract annotation on the function. Row: PR 5 bug
//     #2's copy into dst[:cap(dst)], at MultiWay's final copy.
//
// Findings can be suppressed with a trailing or preceding
// "//lightvet:ignore <analyzer>..." comment; a bare "//lightvet:ignore"
// suppresses every analyzer. The same directive in a function's doc
// comment suppresses the named analyzers for the whole function (and
// keeps hotpath from propagating through it). Suppressions that no
// longer suppress anything are themselves findings under the
// UnusedIgnores audit.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional path:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is the full analysis universe: every loaded package of one Go
// module, in dependency order, sharing a FileSet.
type Module struct {
	Path     string // module path, e.g. "light"
	Fset     *token.FileSet
	Packages []*Package

	cg  *CallGraph      // lazily built, shared by analyzers
	sup *suppressionSet // lazily built; accumulates usage marks
}

// Analyzer is one named check over a whole module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Hotpath, IndexSafety, Hygiene, Statflow, Cancelpoll, CapContract}
}

// ByName resolves a comma-separated analyzer list ("hotpath,hygiene").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Lint runs the analyzers over the module, drops suppressed findings,
// and returns the remainder sorted by position.
func (m *Module) Lint(analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, a := range analyzers {
		all = append(all, a.Run(m)...)
	}
	sup := m.suppressions()
	kept := all[:0]
	for _, f := range all {
		if !sup.matches(f) {
			kept = append(kept, f)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// ignoreDirective parses a "lightvet:ignore ..." comment, returning the
// analyzer names it names (nil, true for the bare form that suppresses
// everything).
func ignoreDirective(text string) (names []string, ok bool) {
	const prefix = "//lightvet:ignore"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(text[len(prefix):])
	// Allow a trailing justification after " -- ".
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return nil, true
	}
	return strings.Fields(rest), true
}

// hotpathAnnotated reports whether a doc comment carries the
// //light:hotpath directive.
func hotpathAnnotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//light:hotpath" {
			return true
		}
	}
	return false
}

// directive is one parsed lightvet:ignore comment, tracked individually
// so the UnusedIgnores audit can tell which suppressions still earn
// their keep.
type directive struct {
	pos   token.Position // the comment's own position
	names []string       // nil suppresses every analyzer
	used  bool           // set when the directive suppressed a finding
	// or stopped propagation
}

// covers reports whether the directive suppresses the named analyzer.
func (d *directive) covers(analyzer string) bool {
	if d.names == nil {
		return true
	}
	for _, n := range d.names {
		if n == "*" || n == analyzer {
			return true
		}
	}
	return false
}

// label renders the directive's analyzer list for audit messages.
func (d *directive) label() string {
	if d.names == nil {
		return "(all analyzers)"
	}
	return strings.Join(d.names, " ")
}

// suppressionSet records, per file, which lines have active
// lightvet:ignore directives, keeping the identity of each directive so
// usage can be audited.
type suppressionSet struct {
	// lines[file][line] holds the directives covering that line.
	lines map[string]map[int][]*directive
	// byPos[file][line] holds the directives declared at that line
	// (their own comment position), for the function-scope lookup.
	byPos map[string]map[int][]*directive
	// order lists every directive once, in module source order.
	order []*directive
}

func (s *suppressionSet) cover(d *directive, file string, line int) {
	if s.lines == nil {
		s.lines = map[string]map[int][]*directive{}
	}
	fl := s.lines[file]
	if fl == nil {
		fl = map[int][]*directive{}
		s.lines[file] = fl
	}
	fl[line] = append(fl[line], d)
}

func (s *suppressionSet) declare(d *directive) {
	if s.byPos == nil {
		s.byPos = map[string]map[int][]*directive{}
	}
	fl := s.byPos[d.pos.Filename]
	if fl == nil {
		fl = map[int][]*directive{}
		s.byPos[d.pos.Filename] = fl
	}
	fl[d.pos.Line] = append(fl[d.pos.Line], d)
	s.order = append(s.order, d)
}

// matches reports whether the finding is suppressed, marking every
// directive that covers it as used.
func (s *suppressionSet) matches(f Finding) bool {
	hit := false
	for _, d := range s.lines[f.Pos.Filename][f.Pos.Line] {
		if d.covers(f.Analyzer) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// suppressions gathers every lightvet:ignore directive in the module,
// building the set once and caching it so usage marks accumulate across
// Lint and FuncIgnores calls. A directive covers its own line and the
// following line (so it works both trailing an offending expression and
// on its own line above one). A directive in a function's doc comment
// covers the function's whole body.
func (m *Module) suppressions() *suppressionSet {
	if m.sup != nil {
		return m.sup
	}
	s := &suppressionSet{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			// Doc-comment directives get function-wide coverage; note
			// their comment positions so the loop below does not
			// double-register them with line-local coverage.
			funcScoped := map[token.Pos]bool{}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || fd.Body == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					names, ok := ignoreDirective(c.Text)
					if !ok {
						continue
					}
					d := &directive{pos: pkg.Fset.Position(c.Pos()), names: names}
					s.declare(d)
					funcScoped[c.Pos()] = true
					start := pkg.Fset.Position(fd.Pos()).Line
					end := pkg.Fset.Position(fd.End()).Line
					fname := pkg.Fset.Position(fd.Pos()).Filename
					for line := start; line <= end; line++ {
						s.cover(d, fname, line)
					}
				}
			}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					names, ok := ignoreDirective(c.Text)
					if !ok || funcScoped[c.Pos()] {
						continue
					}
					d := &directive{pos: pkg.Fset.Position(c.Pos()), names: names}
					s.declare(d)
					s.cover(d, d.pos.Filename, d.pos.Line)
					s.cover(d, d.pos.Filename, d.pos.Line+1)
				}
			}
		}
	}
	m.sup = s
	return s
}

// FuncIgnores reports whether the function's doc comment suppresses the
// named analyzer for the entire declaration (used by the
// call-graph-based analyzers to stop propagation into acknowledged
// functions). The matching directive is marked used for the
// UnusedIgnores audit.
func (m *Module) FuncIgnores(fd *ast.FuncDecl, analyzer string) bool {
	if fd.Doc == nil {
		return false
	}
	s := m.suppressions()
	hit := false
	for _, c := range fd.Doc.List {
		if _, ok := ignoreDirective(c.Text); !ok {
			continue
		}
		pos := m.Fset.Position(c.Pos())
		for _, d := range s.byPos[pos.Filename][pos.Line] {
			if d.covers(analyzer) {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// UnusedIgnores runs the analyzers (marking every suppression they
// trip) and returns a finding, under the synthetic analyzer name
// "unusedignore", for each lightvet:ignore directive that suppressed
// nothing. Run it with the full suite: a directive naming an analyzer
// that did not run would otherwise be reported stale.
func (m *Module) UnusedIgnores(analyzers []*Analyzer) []Finding {
	m.Lint(analyzers)
	var out []Finding
	for _, d := range m.suppressions().order {
		if d.used {
			continue
		}
		out = append(out, Finding{
			Analyzer: "unusedignore",
			Pos:      d.pos,
			Message:  fmt.Sprintf("lightvet:ignore %s suppresses nothing; remove the stale directive", d.label()),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// finding is a small helper building a Finding at a node's position.
func (p *Package) finding(analyzer string, n ast.Node, format string, args ...any) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      p.Fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	}
}
