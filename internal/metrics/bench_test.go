package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sampleRows() []BenchRow {
	return []BenchRow{
		{Dataset: "yt-s", Pattern: "P2", System: "LIGHT/serial", WallNS: 100e6,
			Matches: 1000, Nodes: 5000, Comps: 2000, Intersections: 800, Galloping: 30, Elements: 64000},
		{Dataset: "yt-s", Pattern: "P4", System: "LIGHT/4T", WallNS: 200e6,
			Matches: 77, Nodes: 400, Comps: 90, Intersections: 60, Galloping: 0, Elements: 5200},
	}
}

// TestBenchReportRoundTrip: what WriteBenchFile writes decodes back to the
// stamped report, and the fingerprint covers the counters and nothing
// that depends on the host.
func TestBenchReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "BENCH_fig5.json")
	rep := NewBenchReport("fig5", map[string]string{"scale": "1"}, sampleRows())
	if rep.Schema != BenchSchema || rep.Fingerprint == "" {
		t.Fatalf("report not stamped: %+v", rep)
	}
	if err := WriteBenchFile(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.Fingerprint != rep.Fingerprint || len(got.Rows) != len(rep.Rows) || got.Rows[0] != rep.Rows[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	slower := sampleRows()
	slower[0].WallNS *= 2
	if fp := NewBenchReport("fig5", nil, slower).Fingerprint; fp != rep.Fingerprint {
		t.Errorf("fingerprint moved with wall-clock: %s vs %s", fp, rep.Fingerprint)
	}
	drifted := sampleRows()
	drifted[0].Elements++
	if fp := NewBenchReport("fig5", nil, drifted).Fingerprint; fp == rep.Fingerprint {
		t.Errorf("fingerprint ignores a drifted counter")
	}
}
