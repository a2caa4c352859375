package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestReadCSRRejectsCorruption flips bytes all over a valid CSR payload
// and requires every corrupted variant to either fail loading or still
// satisfy Validate — never to yield a silently broken graph.
func TestReadCSRRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewBuilder(40)
	for i := 0; i < 120; i++ {
		b.AddEdge(VertexID(rng.Intn(40)), VertexID(rng.Intn(40)))
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := g.WriteCSR(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), orig...)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= byte(1 + rng.Intn(255))
		// Version 2 carries a CRC32 trailer: any single-byte change —
		// header, payload, or trailer — must be rejected outright.
		if _, err := ReadCSR(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("trial %d: flip at byte %d accepted", trial, pos)
		}
	}
}

// TestReadCSRLegacyV1 verifies version-1 files (no CRC trailer) are
// still readable, and that a v1 file claiming version 2 is rejected
// (its last four payload bytes would be misread as a trailer).
func TestReadCSRLegacyV1(t *testing.T) {
	g := FromAdjacency([][]VertexID{{1, 2}, {0}, {0}})
	var buf bytes.Buffer
	if err := g.WriteCSR(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()[:buf.Len()-4]...) // strip trailer
	v1[8] = 1                                               // version field
	got, err := ReadCSR(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("legacy v1 rejected: %v", err)
	}
	if got.NumEdges() != g.NumEdges() || got.NumVertices() != g.NumVertices() {
		t.Fatalf("legacy v1 round trip mismatch: %v", got)
	}
	v1[8] = 2 // v2 without a real trailer must fail the CRC or length check
	if _, err := ReadCSR(bytes.NewReader(v1)); err == nil {
		t.Fatal("trailerless v2 accepted")
	}
}

// TestReadCSRTruncation: every truncation must error, never hang or
// return a partial graph.
func TestReadCSRTruncation(t *testing.T) {
	b := NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := g.WriteCSR(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadCSR(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestSaveLoadCSRFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := FromAdjacency([][]VertexID{{1, 2}, {0}, {0}})
	if err := g.SaveCSR(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip mismatch")
	}
	if _, err := LoadCSR(filepath.Join(dir, "missing.csr")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := g.SaveCSR(filepath.Join(dir, "nodir", "g.csr")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
