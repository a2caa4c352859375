package main

import (
	"fmt"
	"testing"
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
		// Values whose n*mult would wrap int64 must be rejected: a
		// wrapped -mem-budget would reach the server as a budget <= 0,
		// which means unlimited.
		"9223372036854775807G", "9007199254740992G", "8589934592G", "9223372036854775808",
	} {
		// The error quotes the flag as given, suffix included.
		if got, err := parseBytes(s); err == nil || err.Error() != fmt.Sprintf("invalid byte count %q", s) {
			t.Errorf("parseBytes(%q) = %d, %v; want the error to quote %q", s, got, err, s)
		}
	}
}
