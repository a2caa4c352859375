//go:build faultinject

// Chaos soak: concurrent governed queries with injected checkpoint-write
// failures and admission faultpoints. Build with -tags faultinject.
package admission_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"light"
	"light/internal/faultpoint"
)

// TestSoakCheckpointWriteFaults runs 4 concurrent checkpointing queries
// on a shared 2-slot Governor while the first 3 checkpoint writes fail.
// The retry-with-backoff path must absorb every injected failure: all
// queries finish with exact counts and the failed writes and their
// retries show up in the reports.
func TestSoakCheckpointWriteFaults(t *testing.T) {
	g, pats, refs := soakFixture(t)
	dir := t.TempDir()

	errInjected := errors.New("injected checkpoint failure")
	faultpoint.Set(faultpoint.PointCheckpointWrite, faultpoint.FailTimes(3, errInjected))
	defer faultpoint.Reset()

	gov := light.NewGovernor(light.GovernorConfig{Slots: 2, DisableWatchdog: true})

	const queries = 4
	var (
		wg      sync.WaitGroup
		reports [queries]*light.RunReport
		errs    [queries]error
		matches [queries]uint64
	)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			pi := q % len(pats)
			res, err := light.CountContext(context.Background(), g, pats[pi], light.Options{
				Workers:            2,
				Governor:           gov,
				CheckpointPath:     filepath.Join(dir, fmt.Sprintf("q%d.ckpt", q)),
				CheckpointInterval: 25 * time.Millisecond,
			})
			errs[q], matches[q], reports[q] = err, res.Matches, res.Report
		}(q)
	}
	wg.Wait()

	var retries, writeErrs uint64
	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Errorf("query %d: unexpected error %v", q, errs[q])
			continue
		}
		if want := refs[q%len(pats)]; matches[q] != want {
			t.Errorf("query %d: matches = %d, want %d", q, matches[q], want)
		}
		if reports[q] != nil {
			retries += reports[q].CheckpointRetries
			writeErrs += reports[q].CheckpointWriteErrors
		}
	}
	// FailTimes(3) injects exactly 3 transient failures process-wide;
	// each one must have been counted as a failed write and retried
	// (never surfaced as a run error).
	if writeErrs != 3 {
		t.Errorf("total CheckpointWriteErrors = %d, want 3", writeErrs)
	}
	if retries != 3 {
		t.Errorf("total CheckpointRetries = %d, want 3", retries)
	}
}

// TestAdmitFaultInjected fails the slot-grant faultpoint once: the
// governed run must surface the injected error before spawning any
// workers, and the governor must stay clean for the next admission.
func TestAdmitFaultInjected(t *testing.T) {
	g, pats, refs := soakFixture(t)

	errBoom := errors.New("injected admission failure")
	faultpoint.Set(faultpoint.PointSlotGrant, faultpoint.FailTimes(1, errBoom))
	defer faultpoint.Reset()

	gov := light.NewGovernor(light.GovernorConfig{Slots: 2, DisableWatchdog: true})
	opts := light.Options{Workers: 2, Governor: gov}

	if _, err := light.CountContext(context.Background(), g, pats[0], opts); !errors.Is(err, errBoom) {
		t.Fatalf("first run error = %v, want injected %v", err, errBoom)
	}
	if n := gov.ActiveQueries(); n != 0 {
		t.Fatalf("ActiveQueries = %d after failed admission, want 0", n)
	}
	res, err := light.CountContext(context.Background(), g, pats[0], opts)
	if err != nil {
		t.Fatalf("second run after injected failure: %v", err)
	}
	if res.Matches != refs[0] {
		t.Fatalf("second run matches = %d, want %d", res.Matches, refs[0])
	}
}

// TestWatchdogFireFaultSuppressed errors the watchdog-fire faultpoint so
// a genuinely stalled worker is never reported or cancelled: the run must
// still complete with the exact count and zero recorded stalls.
func TestWatchdogFireFaultSuppressed(t *testing.T) {
	g, pats, refs := soakFixture(t)

	faultpoint.Set(faultpoint.PointWatchdogFire, faultpoint.FailTimes(1<<30, errors.New("suppressed")))
	defer faultpoint.Reset()

	gov := light.NewGovernor(light.GovernorConfig{
		Slots:         2,
		StallInterval: 10 * time.Millisecond,
		StallPatience: 3,
		CancelOnStall: true, // would cancel the run if the fire were not suppressed
	})

	var once sync.Once
	var seen uint64
	res, err := light.EnumerateContext(context.Background(), g, pats[0],
		light.Options{Workers: 1, Governor: gov},
		func(m []light.VertexID) bool {
			once.Do(func() { time.Sleep(120 * time.Millisecond) })
			seen++
			return true
		})
	if err != nil {
		t.Fatalf("run error = %v, want nil (watchdog fire suppressed)", err)
	}
	if seen != refs[0] {
		t.Fatalf("visited %d matches, want %d", seen, refs[0])
	}
	if res.Report != nil && res.Report.WatchdogStalls != 0 {
		t.Fatalf("WatchdogStalls = %d, want 0 when firing is suppressed", res.Report.WatchdogStalls)
	}
}
