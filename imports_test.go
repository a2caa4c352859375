package light

import (
	"os/exec"
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
