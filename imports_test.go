package light

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingImportWall keeps the reproduction-only packages — the
// comparator baselines, the BFS-join simulators, the differential checker
// and the linter — out of everything a served query links: the library,
// the HTTP layer and the two serving binaries.
func TestServingImportWall(t *testing.T) {
	walled := map[string]bool{
		"light/internal/baselines": true,
		"light/internal/bfsjoin":   true,
		"light/internal/diffcheck": true,
		"light/internal/lint":      true,
	}
	// One line per root: its import path, then its transitive imports.
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`,
		"light", "light/internal/server", "light/cmd/lightd", "light/cmd/lightenum").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("go list printed %d lines for 4 packages:\n%s", len(lines), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, dep := range fields[1:] {
			if walled[dep] {
				t.Errorf("%s imports %s (directly or transitively)", fields[0], dep)
			}
		}
	}
}

// TestPublicSurfaceCensus keeps DESIGN.md's census of the public surface
// in step with the root package. Every exported name of the non-test
// files, every exported method, and every field of Options and
// GovernorConfig needs a row whose surface is "light"; and every such row
// must name something that exists (a field of any exported struct
// counts), so a deletion takes its row with it.
func TestPublicSurfaceCensus(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	required, exists := map[string]bool{}, map[string]bool{}
	add := func(name string, needsRow bool) {
		exists[name] = true
		if needsRow {
			required[name] = true
		}
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, true)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if typ := recv.(*ast.Ident).Name; ast.IsExported(typ) {
					add(typ+"."+d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(n.Name, true)
							}
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						add(s.Name.Name, true)
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						option := s.Name.Name == "Options" || s.Name.Name == "GovernorConfig"
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								if n.IsExported() {
									add(s.Name.Name+"."+n.Name, option)
								}
							}
						}
					}
				}
			}
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.TrimSpace(cells[1]) != "light" {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[2]), "`")
		rows[name] = true
		if !exists[name] {
			t.Errorf("DESIGN.md census row %q names nothing exported by package light", name)
		}
	}
	for name := range required {
		if !rows[name] {
			t.Errorf("package light exports %s, which has no row in DESIGN.md's census", name)
		}
	}
}
