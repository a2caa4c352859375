package metrics

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// BenchSchema is the version tag every BENCH_*.json file carries. Bump
// it when the file layout changes incompatibly.
const BenchSchema = "light-bench/2"

// BenchHost describes the machine a benchmark report was produced on —
// context for interpreting wall-clock numbers across runs.
type BenchHost struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	Hostname  string `json:"hostname,omitempty"`
}

// BenchRow is one measured configuration: a (dataset, pattern, system)
// cell with its wall-clock time and deterministic work counters. The
// counters (matches, nodes, comps, intersections, galloping, elements)
// depend only on graph, plan, and kernel — not on worker count or
// scheduling.
type BenchRow struct {
	Dataset       string `json:"dataset"`
	Pattern       string `json:"pattern"`
	System        string `json:"system"`
	Mark          string `json:"mark,omitempty"` // "INF"/"OOS" failure marks
	WallNS        int64  `json:"wall_ns"`
	Matches       uint64 `json:"matches"`
	Nodes         uint64 `json:"nodes,omitempty"`
	Comps         uint64 `json:"comps,omitempty"`
	Intersections uint64 `json:"intersections,omitempty"`
	Galloping     uint64 `json:"galloping,omitempty"`
	Elements      uint64 `json:"elements,omitempty"`
	BitmapProbes  uint64 `json:"bitmap_probes,omitempty"`
	MemoryBytes   int64  `json:"memory_bytes,omitempty"`
}

// key identifies the row's cell.
func (r BenchRow) key() string {
	return r.Dataset + "|" + r.Pattern + "|" + r.System
}

// BenchReport is the versioned on-disk format of a benchmark run
// (BENCH_<experiment>.json): host and configuration context, a
// fingerprint over the deterministic row fields, and the rows.
type BenchReport struct {
	Schema      string            `json:"schema"`
	Experiment  string            `json:"experiment"`
	GeneratedAt string            `json:"generated_at"`
	Host        BenchHost         `json:"host"`
	Config      map[string]string `json:"config,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Rows        []BenchRow        `json:"rows"`
}

// NewBenchReport assembles a schema-stamped report for one experiment:
// host info and the deterministic fingerprint are filled in, the rows
// are taken as measured.
func NewBenchReport(experiment string, config map[string]string, rows []BenchRow) *BenchReport {
	hostname, _ := os.Hostname() // optional context; empty on error is fine
	r := &BenchReport{
		Schema:      BenchSchema,
		Experiment:  experiment,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: BenchHost{
			GoVersion: runtime.Version(),
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			Hostname:  hostname,
		},
		Config: config,
		Rows:   rows,
	}
	r.Fingerprint = r.computeFingerprint()
	return r
}

// computeFingerprint hashes the deterministic identity of the run — row
// keys, failure marks, and work counters, in row order — so two reports
// with equal fingerprints are counter-identical. Wall-clock times and
// host info are deliberately excluded. The constant last column is
// schema 2's governor-slot count, which no remaining writer records; it
// stays so that equal rows keep the fingerprint they always had.
func (r *BenchReport) computeFingerprint() string {
	h := fnv.New64a()
	w := func(s string) {
		h.Write([]byte(s)) //lightvet:ignore hygiene -- fnv.Write cannot fail
	}
	for _, row := range r.Rows {
		w(fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d|%d|%d|0\n",
			row.key(), row.Mark, row.Matches, row.Nodes, row.Comps,
			row.Intersections, row.Galloping, row.Elements, row.BitmapProbes))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteBenchFile writes the report as indented JSON, creating the
// destination directory if needed.
func WriteBenchFile(path string, r *BenchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encoding bench report: %w", err)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("metrics: creating bench report dir: %w", err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("metrics: writing bench report: %w", err)
	}
	return nil
}
