//go:build faultinject

package lanes

import (
	"context"
	"errors"
	"strings"
	"testing"

	"light/internal/delta"
	"light/internal/faultpoint"
	"light/internal/gen"
	"light/internal/parallel"
	"light/internal/pattern"
)

var errInjected = errors.New("injected")

// TestChaosBatchAdmit: a fault at batch admission fails the batch
// before the pool runs, with no partial counts.
func TestChaosBatchAdmit(t *testing.T) {
	defer faultpoint.Reset()
	g := gen.ErdosRenyi(50, 150, 1)
	pl := compile(t, pattern.Triangle())
	faultpoint.Set(faultpoint.PointBatchAdmit, faultpoint.FailTimes(1, errInjected))
	res, err := Run(context.Background(), delta.NewView(g, nil), []Query{{Plan: pl}}, parallel.Options{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "batch admission") {
		t.Fatalf("err = %v", err)
	}
	if res.PerQuery[0].Nodes != 0 {
		t.Fatalf("work ran past a failed admission: %+v", res.PerQuery[0])
	}
}
