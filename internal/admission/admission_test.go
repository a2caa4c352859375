package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDefaults(t *testing.T) {
	g := New(Config{})
	if g.Slots() < 1 {
		t.Fatalf("Slots = %d, want >= 1", g.Slots())
	}
	wd := g.Watchdog()
	if wd == nil || wd.Interval != time.Second || wd.Patience != 5 || wd.Cancel {
		t.Fatalf("default watchdog config = %+v", wd)
	}
	if New(Config{DisableWatchdog: true}).Watchdog() != nil {
		t.Fatalf("DisableWatchdog still returned a watchdog config")
	}
	if g.MemLimiter() != nil {
		t.Fatalf("zero MemoryBudget produced a limiter")
	}
	if New(Config{MemoryBudget: 1 << 20}).MemLimiter() == nil {
		t.Fatalf("MemoryBudget did not produce a limiter")
	}
}

// TestAdmitOpportunisticGrow: a run's worker cap is min(want, Slots),
// whatever other runs hold, and Slots runs are admitted at once — the
// next one waits for a place and times out with ErrOverloaded.
func TestAdmitOpportunisticGrow(t *testing.T) {
	g := New(Config{Slots: 4})
	a, err := g.Admit(context.Background(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := a.Granted(); got != 4 {
		t.Fatalf("Granted = %d, want all 4 slots", got)
	}
	for i := 0; i < 3; i++ {
		b, err := g.Admit(context.Background(), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if got := b.Granted(); got != 2 {
			t.Fatalf("run %d beside a full-width run: Granted = %d, want its 2", i+2, got)
		}
	}
	if _, err := g.Admit(context.Background(), 2, 10*time.Millisecond); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fifth Admit on a 4-slot governor: err = %v, want ErrOverloaded", err)
	}
	if g.Timeouts() != 1 {
		t.Fatalf("Timeouts = %d, want 1", g.Timeouts())
	}
}

func TestAdmitGuaranteedSlotEventually(t *testing.T) {
	g := New(Config{Slots: 2})
	a, _ := g.Admit(context.Background(), 2, 0)
	a2, _ := g.Admit(context.Background(), 1, 0)
	done := make(chan *Admission)
	go func() {
		b, err := g.Admit(context.Background(), 2, time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- b
	}()
	// Let the third admission enqueue, then free a place.
	waitForQueueLen(t, g, 1)
	a.Close()
	b := <-done
	if b == nil {
		t.Fatal("waiter never granted")
	}
	if got := b.Granted(); got != 2 {
		t.Fatalf("Granted = %d, want 2", got)
	}
	b.Close()
	a2.Close()
}

// TestFIFOFairness enqueues waiters in a known order and releases slots
// one at a time: grants must come back in arrival order — a freed slot
// is handed directly to the queue head, never barged.
func TestFIFOFairness(t *testing.T) {
	g := New(Config{Slots: 1})
	hold, err := g.Admit(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	const n = 5
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	admitted := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		// Enqueue deterministically: wait until waiter i is visibly in
		// the queue before starting waiter i+1.
		go func() {
			defer wg.Done()
			a, err := g.Admit(context.Background(), 1, 5*time.Second)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			admitted <- struct{}{}
			a.Close()
		}()
		waitForQueueLen(t, g, i+1)
	}

	hold.Close() // hand the slot down the queue, one Close at a time
	for i := 0; i < n; i++ {
		<-admitted
	}
	wg.Wait()

	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO 0..%d", order, n-1)
		}
	}
	if g.handoffs.Load() != n {
		t.Fatalf("handoffs = %d, want %d (every grant via direct handoff)", g.handoffs.Load(), n)
	}
}

func waitForQueueLen(t *testing.T, g *Governor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		l := len(g.waiters)
		g.mu.Unlock()
		if l >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestCloseIdempotent(t *testing.T) {
	g := New(Config{Slots: 3})
	a, _ := g.Admit(context.Background(), 3, 0)
	a.Close()
	a.Close()
	g.mu.Lock()
	free := g.free
	g.mu.Unlock()
	if free != 3 {
		t.Fatalf("free = %d after double Close, want 3", free)
	}
	if g.ActiveQueries() != 0 {
		t.Fatalf("ActiveQueries = %d after Close", g.ActiveQueries())
	}
}

func TestAdmitContextCancelled(t *testing.T) {
	g := New(Config{Slots: 1})
	a, _ := g.Admit(context.Background(), 1, 0)
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Admit(ctx, 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned waiter must not linger in the queue.
	g.mu.Lock()
	l := len(g.waiters)
	g.mu.Unlock()
	if l != 0 {
		t.Fatalf("abandoned waiter left in queue")
	}
}

func TestNilAdmissionInert(t *testing.T) {
	var a *Admission
	if a.Granted() != 0 || a.Wait() != 0 {
		t.Fatalf("nil Admission reported state")
	}
	a.Close()
}
