package lint_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"light/internal/lint"
)

// mutation re-creates one bug this repo shipped, in a real file of the
// module: old must occur exactly once, and after the swap the analyzer
// must report a finding on one of the lines new occupies. go vet and the
// mutated package's own tests stay green under each row, so the rule is
// the only check that catches it.
type mutation struct {
	analyzer string
	bug      string // the change whose bug the row re-creates
	file     string // module-relative
	old, new string
}

var mutations = []mutation{
	{
		analyzer: "hotpath",
		bug:      "PR 1: lowerBound's sort.Search predicate closure in the MAT loop",
		file:     "internal/engine/engine.go",
		old:      "\tlo, hi := 0, len(s)\n\tfor lo < hi {\n\t\tmid := int(uint(lo+hi) >> 1)\n\t\tif int64(s[mid]) < x {\n",
		new:      "\tbelow := func(k int) bool { return int64(s[k]) < x }\n\tlo, hi := 0, len(s)\n\tfor lo < hi {\n\t\tmid := int(uint(lo+hi) >> 1)\n\t\tif below(mid) {\n",
	},
	{
		analyzer: "indexsafety",
		bug:      "PR 1: Degree's uint32 offsets[v+1], which wraps at v = MaxUint32",
		file:     "internal/graph/graph.go",
		old:      "g.offsets[int64(v)+1] - g.offsets[v]",
		new:      "g.offsets[v+1] - g.offsets[v]",
	},
	{
		analyzer: "hygiene",
		bug:      "PR 1: SaveCSR's unchecked Close, which loses the write-back error",
		file:     "internal/graph/io.go",
		old:      "\tcerr := f.Close()\n\tif werr != nil {\n\t\treturn werr\n\t}\n\treturn cerr\n",
		new:      "\tf.Close()\n\treturn werr\n",
	},
	{
		analyzer: "hygiene",
		bug:      "PR 1: lightenum's Fprintf into its bufio match writer, unacknowledged",
		file:     "cmd/lightenum/main.go",
		old:      "fmt.Fprintf(out, \"%d\", v) //lightvet:ignore hygiene -- bufio sticky error is checked at Flush\n",
		new:      "fmt.Fprintf(out, \"%d\", v)\n",
	},
	{
		analyzer: "statflow",
		bug:      "PR 5 bug #1: a Stats-taking kernel that drops the caller's Stats",
		file:     "internal/intersect/intersect.go",
		old:      "return Pair(dst, a, b, KindHybridBlock, delta, stats)",
		new:      "return Pair(dst, a, b, KindHybridBlock, delta, nil)",
	},
	{
		analyzer: "cancelpoll",
		bug:      "PR 4 bug #1: the MAT loop's injectivity reject placed before the poll",
		file:     "internal/engine/engine.go",
		old: "\tfor _, v := range candidates {\n" +
			"\t\t// Poll first: the injectivity/degree/filter rejects used to\n" +
			"\t\t// precede the poll, so candidate runs rejected wholesale\n" +
			"\t\t// completed iterations without a cancellation check.\n" +
			"\t\tif !e.checkDeadline() {\n\t\t\treturn false\n\t\t}\n" +
			"\t\tif e.usedValue(v, distinct) {\n\t\t\tcontinue\n\t\t}\n",
		new: "\tfor _, v := range candidates {\n" +
			"\t\tif e.usedValue(v, distinct) {\n\t\t\tcontinue\n\t\t}\n" +
			"\t\tif !e.checkDeadline() {\n\t\t\treturn false\n\t\t}\n",
	},
	{
		analyzer: "capcontract",
		bug:      "PR 5 bug #2: MultiWay's copy into dst[:cap(dst)], which truncates silently",
		file:     "internal/intersect/intersect.go",
		old:      "copy(dst[:n], cur[:n])",
		new:      "copy(dst[:cap(dst)], cur[:n])",
	},
}

// TestMutationsAgainstRealTree applies every mutation to one copy of
// the module, lints the copy once, and requires each row's finding.
func TestMutationsAgainstRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping module load in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	for _, mu := range mutations {
		path := filepath.Join(tmp, mu.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), mu.old); n != 1 {
			t.Fatalf("%s row (%s): old text matches %s %d times, want once", mu.analyzer, mu.bug, mu.file, n)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), mu.old, mu.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m, err := lint.Load(tmp, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings := m.Lint(lint.All())
	for _, mu := range mutations {
		src, err := os.ReadFile(filepath.Join(tmp, mu.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), mu.new); n != 1 {
			t.Fatalf("%s row (%s): new text matches %s %d times, want once", mu.analyzer, mu.bug, mu.file, n)
		}
		at := strings.Index(string(src), mu.new)
		first := 1 + strings.Count(string(src[:at]), "\n")
		last := first + strings.Count(strings.TrimSuffix(mu.new, "\n"), "\n")
		found := false
		for _, f := range findings {
			if f.Analyzer == mu.analyzer && strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "/"+mu.file) &&
				f.Pos.Line >= first && f.Pos.Line <= last {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s missed %s at %s:%d-%d", mu.analyzer, mu.bug, mu.file, first, last)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Log(f)
		}
	}
}

// copyModule copies the module's non-test Go sources and go.mod from
// root to dst, skipping testdata, hidden directories and nested modules.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}
