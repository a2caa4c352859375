// Package hy holds hygiene violation fixtures.
package hy

import "os"

// fail is an unexported helper returning an error.
func fail() error { return nil }

// Run discards error returns in expression statements.
func Run() {
	fail()         // want hygiene
	os.Remove("x") // want hygiene
}
