package main

import (
	"fmt"
	"testing"

	"light/internal/gen"
)

func TestParseBytes(t *testing.T) {
	for s, want := range map[string]int64{
		"512": 512, "64K": 64 << 10, "2k": 2 << 10,
		"512M": 512 << 20, "3m": 3 << 20, "2G": 2 << 30, "1g": 1 << 30,
		"0": 0,
	} {
		got, err := parseBytes(s)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v, want %d", s, got, err, want)
		}
	}
	for _, s := range []string{
		"", "-1", "12X", "1.5G", "K",
		// Values whose n*mult would wrap int64 must be rejected, not
		// silently accepted as a wrapped budget.
		"9223372036854775807G", "9007199254740992G", "9223372036854775808",
	} {
		// The error quotes the flag as given, suffix included.
		if got, err := parseBytes(s); err == nil || err.Error() != fmt.Sprintf("invalid byte count %q", s) {
			t.Errorf("parseBytes(%q) = %d, %v; want the error to quote %q", s, got, err, s)
		}
	}
}

func TestWrapPreservesCounts(t *testing.T) {
	internal := gen.BarabasiAlbert(150, 4, 1)
	pub := wrap(internal)
	if int64(pub.NumEdges()) != internal.NumEdges() || pub.NumVertices() != internal.NumVertices() {
		t.Fatalf("wrap changed size: %v vs %v", pub, internal)
	}
}

func TestLoadGraphDataset(t *testing.T) {
	g, err := loadGraph("yt-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := loadGraph("no-such-thing", 1); err == nil {
		t.Fatal("bogus graph source accepted")
	}
}
