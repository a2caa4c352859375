// Command lightvet runs the project's static-analysis suite (see
// internal/lint) over the module: hotpath allocation discipline, CSR
// index safety, discarded errors (hygiene), and the interprocedural
// statflow / cancelpoll / capcontract invariants. Each rule is pinned by
// a row of internal/lint's TestMutationsAgainstRealTree that re-creates
// a bug this repo shipped. It is part of the tier-1 verify line and
// exits non-zero on any finding.
//
// Usage:
//
//	lightvet [flags] [packages]
//
//	-analyzers names   comma-separated analyzer subset (default: all)
//	-list              list the available analyzers and exit
//	-json path         also write findings as JSON to path ("-" for stdout)
//	-unused-ignores    audit lightvet:ignore directives: stale
//	                   suppressions become findings (forces the full
//	                   analyzer suite)
//
// Packages default to ./... . Findings are suppressed with a
// "//lightvet:ignore <analyzer> -- reason" comment on or above the
// offending line; hot functions are declared with "//light:hotpath" and
// documented-panic capacity contracts with "//light:cap-contract" in
// doc comments. Under GitHub Actions (GITHUB_ACTIONS set), findings are
// additionally emitted as ::error workflow annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"light/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		analyzerNames = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		listFlag      = fs.Bool("list", false, "list the available analyzers and exit")
		jsonPath      = fs.String("json", "", "write findings as JSON to this path (\"-\" for stdout)")
		auditIgnores  = fs.Bool("unused-ignores", false, "also report stale lightvet:ignore directives (runs the full suite)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *analyzerNames != "" {
		if *auditIgnores {
			fmt.Fprintln(stderr, "lightvet: -unused-ignores needs the full suite; drop -analyzers")
			return 2
		}
		var err error
		analyzers, err = lint.ByName(*analyzerNames)
		if err != nil {
			fmt.Fprintln(stderr, "lightvet:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "lightvet:", err)
		return 1
	}
	m, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "lightvet:", err)
		return 1
	}

	findings := m.Lint(analyzers)
	if *auditIgnores {
		findings = append(findings, m.UnusedIgnores(analyzers)...)
	}

	annotate := os.Getenv("GITHUB_ACTIONS") != ""
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
		if annotate {
			fmt.Fprintln(stdout, ghAnnotation(f))
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(stdout, *jsonPath, m.Path, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "lightvet:", err)
			return 1
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "lightvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// ghAnnotation renders one finding as a GitHub Actions workflow
// command, so CI failures surface inline on the PR diff. Paths are
// made repo-relative when possible since runners check out at the
// workspace root.
func ghAnnotation(f lint.Finding) string {
	file := f.Pos.Filename
	if cwd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
			file = rel
		}
	}
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::[%s] %s", file, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// jsonReport is the machine-readable findings document ("lightvet/1").
type jsonReport struct {
	Schema    string        `json:"schema"`
	Module    string        `json:"module"`
	Analyzers []string      `json:"analyzers"`
	Findings  []jsonFinding `json:"findings"`
}

// jsonFinding is one finding with its position split into fields.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// writeJSON renders the findings document to path, or to stdout when
// path is "-".
func writeJSON(stdout io.Writer, path, module string, analyzers []*lint.Analyzer, findings []lint.Finding) error {
	rep := jsonReport{
		Schema:   "lightvet/1",
		Module:   module,
		Findings: []jsonFinding{},
	}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
