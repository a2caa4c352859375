package parallel

import (
	"strings"
	"testing"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestNegativeDeltaRejectedAtEntry pins the parallel-entry validation of
// Options.Engine.Delta: a negative δ must be rejected as an error before
// workers spawn (engine.New panics on it, and a supervised worker panic
// is a worse failure report).
func TestNegativeDeltaRejectedAtEntry(t *testing.T) {
	g := gen.Complete(6)
	p := pattern.Triangle()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, pl, Options{Engine: engine.Options{Delta: -5}, Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "Delta") {
		t.Fatalf("Run with Delta=-5: err = %v, want Delta validation error", err)
	}
}
