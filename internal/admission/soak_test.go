// Multi-query soak: N concurrent runs sharing one Governor, exercising
// FIFO-fair admission, the shared worker pool, the stall watchdog, and
// goroutine hygiene end to end. It lives in package admission_test so
// it can drive the public light API against this package's governor.
package admission_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"light"
)

// soakFixture builds the shared graph, patterns, and serial reference
// counts for the soak tests. -short shrinks the graph so verify.sh's
// quick pass stays fast.
func soakFixture(t *testing.T) (*light.Graph, []*light.Pattern, []uint64) {
	t.Helper()
	size := 3000
	if testing.Short() {
		size = 800
	}
	g := light.GenerateBarabasiAlbert(size, 6, 29)
	var pats []*light.Pattern
	for _, name := range []string{"triangle", "square"} {
		p, err := light.PatternByName(name)
		if err != nil {
			t.Fatalf("PatternByName(%s): %v", name, err)
		}
		pats = append(pats, p)
	}
	refs := make([]uint64, len(pats))
	for i, p := range pats {
		res, err := light.Count(g, p, light.Options{})
		if err != nil {
			t.Fatalf("reference Count(%s): %v", p.Name(), err)
		}
		refs[i] = res.Matches
	}
	return g, pats, refs
}

// settleGoroutines polls until the process goroutine count returns to
// at most base+slack, failing with a full stack dump if it never does.
func settleGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d now vs %d before\n%s", n, base, buf)
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGovernorMultiQuerySoak runs 8 concurrent queries on a 4-slot
// Governor. Every query must be admitted (FIFO fairness: none starve),
// produce its exact serial count, and leave no goroutines behind. One
// query carries a deliberately stalled visitor; the watchdog (observe
// mode) must record the stall without disturbing the count.
func TestGovernorMultiQuerySoak(t *testing.T) {
	g, pats, refs := soakFixture(t)

	before := runtime.NumGoroutine()
	gov := light.NewGovernor(light.GovernorConfig{
		Slots:         4,
		StallInterval: 15 * time.Millisecond,
		StallPatience: 3,
		// Observe-only: stalled queries finish, with the stall on record.
	})

	const queries = 8
	const stallQuery = 5 // this one drags its feet mid-enumeration
	var (
		wg      sync.WaitGroup
		results [queries]light.Result
		errs    [queries]error
	)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			opts := light.Options{
				Workers:  1 + q%4,
				Governor: gov,
			}
			pi := q % len(pats)
			if q == stallQuery {
				var (
					once sync.Once
					seen atomic.Uint64
				)
				_, errs[q] = light.EnumerateContext(context.Background(), g, pats[pi], opts,
					func(m []light.VertexID) bool {
						once.Do(func() { time.Sleep(150 * time.Millisecond) })
						seen.Add(1)
						return true
					})
				results[q].Matches = seen.Load()
				return
			}
			results[q], errs[q] = light.CountContext(context.Background(), g, pats[pi], opts)
		}(q)
	}
	wg.Wait()

	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Errorf("query %d: unexpected error %v", q, errs[q])
			continue
		}
		if want := refs[q%len(pats)]; results[q].Matches != want {
			t.Errorf("query %d: matches = %d, want %d", q, results[q].Matches, want)
		}
	}
	if n := gov.ActiveQueries(); n != 0 {
		t.Errorf("ActiveQueries = %d after all runs finished, want 0", n)
	}
	if used := gov.MemoryInUse(); used != 0 {
		t.Errorf("MemoryInUse = %d after all runs finished, want 0", used)
	}
	settleGoroutines(t, before, 3)
}

// TestGovernorSoakSequentialWaves admits more waves of queries than
// slots, serially per goroutine, to shake out slot-accounting drift
// across many admit/close cycles.
func TestGovernorSoakSequentialWaves(t *testing.T) {
	g, pats, refs := soakFixture(t)

	waves := 3
	if testing.Short() {
		waves = 2
	}
	gov := light.NewGovernor(light.GovernorConfig{Slots: 2, DisableWatchdog: true})

	var wg sync.WaitGroup
	errCh := make(chan error, 4*waves)
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for w := 0; w < waves; w++ {
				pi := (lane + w) % len(pats)
				res, err := light.CountContext(context.Background(), g, pats[pi],
					light.Options{Workers: 2, Governor: gov})
				if err != nil {
					errCh <- fmt.Errorf("lane %d wave %d: %v", lane, w, err)
					return
				}
				if res.Matches != refs[pi] {
					errCh <- fmt.Errorf("lane %d wave %d: matches = %d, want %d", lane, w, res.Matches, refs[pi])
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := gov.ActiveQueries(); n != 0 {
		t.Errorf("ActiveQueries = %d after all waves, want 0", n)
	}
}
