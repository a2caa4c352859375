package lint_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"light/internal/lint"
)

// fixturePkgs lists every fixture package under testdata/src. Each
// analyzer has a violation fixture (findings expected on every line
// carrying a "// want <analyzer>" marker) and a clean fixture (no
// findings allowed). All are loaded as one fixture module so the
// full suite cross-checks: an analyzer firing on another analyzer's
// fixture is reported as an unexpected finding. Order matters for
// packages with module-internal imports: dependencies first.
var fixturePkgs = []string{
	"hotpath_bad", "hotpath_clean",
	"indexsafety_bad", "indexsafety_clean",
	"hygiene_bad", "hygiene_clean",
	"hygiene_main_bad", "hygiene_main_clean",
	"statflow_bad", // must precede statflow_caller
	"statflow_clean", "statflow_caller",
	"cancelpoll_bad", "cancelpoll_clean",
	"admission_bad", "admission_clean",
	"capcontract_bad", "capcontract_clean",
	"callgraph",
}

var (
	fixtureOnce sync.Once
	fixtureMod  *lint.Module
	fixtureErr  error
)

func loadFixtures(t *testing.T) *lint.Module {
	t.Helper()
	fixtureOnce.Do(func() {
		paths := make([]string, 0, len(fixturePkgs))
		dirs := map[string]string{}
		for _, name := range fixturePkgs {
			path := "fixture/" + name
			paths = append(paths, path)
			dirs[path] = filepath.Join("testdata", "src", name)
		}
		fixtureMod, fixtureErr = lint.LoadDirs("fixture", paths, dirs)
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixtures: %v", fixtureErr)
	}
	return fixtureMod
}

// mark identifies one expected finding: a file/line plus the analyzer
// that must fire there.
type mark struct {
	file     string
	line     int
	analyzer string
}

// wantMarks scans the fixture sources for "// want <analyzer>" trailing
// comments.
func wantMarks(m *lint.Module) map[mark]bool {
	out := map[mark]bool{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
					if len(fields) != 2 || fields[0] != "want" {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					out[mark{filepath.Base(pos.Filename), pos.Line, fields[1]}] = true
				}
			}
		}
	}
	return out
}

// TestAnalyzersMatchFixtureMarkers runs the whole suite over the whole
// fixture module and requires the findings to match the want markers
// exactly: every marked line fires, nothing else does. Clean fixtures
// carry no markers, so any finding in them fails the test.
func TestAnalyzersMatchFixtureMarkers(t *testing.T) {
	m := loadFixtures(t)
	want := wantMarks(m)
	if len(want) == 0 {
		t.Fatal("no want markers found in fixtures")
	}
	got := map[mark]bool{}
	var unexpected []string
	for _, f := range m.Lint(lint.All()) {
		k := mark{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer}
		got[k] = true
		if !want[k] {
			unexpected = append(unexpected, f.String())
		}
	}
	sort.Strings(unexpected)
	for _, s := range unexpected {
		t.Errorf("unexpected finding: %s", s)
	}
	var missing []string
	for k := range want {
		if !got[k] {
			missing = append(missing, fmt.Sprintf("%s:%d: expected a %s finding, got none", k.file, k.line, k.analyzer))
		}
	}
	sort.Strings(missing)
	for _, s := range missing {
		t.Error(s)
	}
}

// TestEachAnalyzerFires guards against an analyzer silently matching
// nothing (e.g. a scoping bug that skips every package).
func TestEachAnalyzerFires(t *testing.T) {
	m := loadFixtures(t)
	byAnalyzer := map[string]int{}
	for _, f := range m.Lint(lint.All()) {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range lint.All() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s produced no findings on its violation fixture", a.Name)
		}
	}
}

// TestSingleAnalyzerScoping runs one analyzer in isolation and checks it
// reports only its own findings.
func TestSingleAnalyzerScoping(t *testing.T) {
	m := loadFixtures(t)
	for _, f := range m.Lint([]*lint.Analyzer{lint.IndexSafety}) {
		if f.Analyzer != "indexsafety" {
			t.Errorf("indexsafety run produced foreign finding: %s", f)
		}
		if !strings.Contains(f.Pos.Filename, "indexsafety_bad") {
			t.Errorf("indexsafety fired outside its fixture: %s", f)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := lint.ByName("hotpath, hygiene")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(as) != 2 || as[0].Name != "hotpath" || as[1].Name != "hygiene" {
		t.Fatalf("ByName returned %v", as)
	}
	// concurrency was deleted: a stale -analyzers concurrency must fail
	// rather than check nothing.
	for _, name := range []string{"nope", "concurrency"} {
		if _, err := lint.ByName(name); err == nil {
			t.Fatalf("ByName accepted the unknown analyzer name %q", name)
		}
	}
}

// TestLoadRealModule smoke-tests the go-list-driven loader against the
// repository itself using a package with module-internal imports.
func TestLoadRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping module load in -short mode")
	}
	m, err := lint.Load(".", []string{"light/internal/intersect"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.Path != "light" {
		t.Fatalf("module path = %q, want light", m.Path)
	}
	if len(m.Packages) == 0 {
		t.Fatal("Load returned no packages")
	}
}
