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
	"light/internal/metrics"
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
	res, err := Run(context.Background(), delta.NewView(g, nil), []Query{{Plan: pl}}, parallel.Options{}, nil)
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

// TestChaosLaneFold: a fault during the lane fold surfaces as the batch
// error; the traversal's counts are already banked (PerQuery filled)
// but the recorders must not be half-folded.
func TestChaosLaneFold(t *testing.T) {
	defer faultpoint.Reset()
	g := gen.ErdosRenyi(50, 150, 1)
	pl := compile(t, pattern.Triangle())
	faultpoint.Set(faultpoint.PointLaneFold, faultpoint.FailTimes(1, errInjected))
	recs := []*metrics.Recorder{metrics.NewRecorder()}
	res, err := Run(context.Background(), delta.NewView(g, nil), []Query{{Plan: pl}}, parallel.Options{}, recs)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if res.PerQuery[0].Matches == 0 {
		t.Fatal("counts not banked before the fold fault")
	}
	// A second run with the fault spent must succeed and fold cleanly.
	recs2 := []*metrics.Recorder{metrics.NewRecorder()}
	res2, err := Run(context.Background(), delta.NewView(g, nil), []Query{{Plan: pl}}, parallel.Options{}, recs2)
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Get(metrics.EngineMatches) != res2.PerQuery[0].Matches {
		t.Fatal("recorder fold mismatch after fault cleared")
	}
	if res2.PerQuery[0] != res.PerQuery[0] {
		t.Fatalf("counts drifted across fault: %+v vs %+v", res2.PerQuery[0], res.PerQuery[0])
	}
}
