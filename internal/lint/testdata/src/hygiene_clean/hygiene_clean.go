// Package hy holds hygiene-clean fixtures: the sanctioned error-discard
// exemptions must produce no findings.
package hy

import (
	"fmt"
	"os"
	"strings"
)

// Config carries options.
type Config struct {
	N int
}

// Render exercises every exemption: fmt calls, infallible writers, and
// deferred calls whose sticky error is handled elsewhere.
func Render(c Config) (string, error) {
	var b strings.Builder
	b.WriteString("n=")
	fmt.Println(c.N)
	f, err := os.CreateTemp("", "hy")
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "%d", c.N); err != nil {
		return "", err
	}
	return b.String(), nil
}
