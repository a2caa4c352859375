package arena

import "testing"

func TestLimiterNilUnlimited(t *testing.T) {
	var l *Limiter
	if l != NewLimiter(0, nil) {
		t.Fatalf("NewLimiter(0, nil) should be nil")
	}
	if !l.Reserve(1 << 40) {
		t.Fatalf("nil limiter denied a reservation")
	}
	l.Release(1 << 40)
	l.ReleaseAll()
	if l.Used() != 0 {
		t.Fatalf("nil limiter reported %d bytes used", l.Used())
	}
}

func TestLimiterReserveDeny(t *testing.T) {
	l := NewLimiter(100, nil)
	if !l.Reserve(60) || !l.Reserve(40) {
		t.Fatalf("reservations within limit denied")
	}
	if l.Reserve(1) {
		t.Fatalf("reservation past limit granted")
	}
	if got := l.Used(); got != 100 {
		t.Fatalf("Used = %d, want 100", got)
	}
	l.Release(50)
	if !l.Reserve(50) {
		t.Fatalf("reservation after release denied")
	}
}

func TestLimiterParentRollback(t *testing.T) {
	parent := NewLimiter(100, nil)
	child := NewLimiter(1000, parent)
	if !child.Reserve(80) {
		t.Fatalf("first reservation denied")
	}
	// Child has room, parent does not: must fail and roll back the
	// child's accounting.
	if child.Reserve(30) {
		t.Fatalf("reservation granted past parent limit")
	}
	if got := child.Used(); got != 80 {
		t.Fatalf("child Used = %d after rollback, want 80", got)
	}
	if got := parent.Used(); got != 80 {
		t.Fatalf("parent Used = %d after rollback, want 80", got)
	}
	child.ReleaseAll()
	if parent.Used() != 0 || child.Used() != 0 {
		t.Fatalf("ReleaseAll left used = parent %d child %d", parent.Used(), child.Used())
	}
}

// TestBudgetedArenaExactSlabs: a budgeted arena grows slabs of exactly
// the requested size, however empty its budget, so a budget that holds
// the buffers holds the arena (an unbudgeted one rounds up to
// chunkElems, TestAllocBasics).
func TestBudgetedArenaExactSlabs(t *testing.T) {
	lim := NewLimiter(1<<40, nil)
	a := NewBudgeted(lim)
	for i := 0; i < 3; i++ {
		if b := a.Alloc(100); len(b) != 100 {
			t.Fatalf("Alloc %d failed under ample budget", i)
		}
	}
	if a.Bytes() != 3*100*4 || lim.Used() != a.Bytes() {
		t.Fatalf("budgeted arena holds %d bytes, limiter %d; want exactly 3 requests, %d", a.Bytes(), lim.Used(), 3*100*4)
	}
	// The same frame after Reset reuses the slabs and reserves nothing.
	a.Reset()
	for i := 0; i < 3; i++ {
		a.Alloc(100)
	}
	if lim.Used() != 3*100*4 {
		t.Fatalf("replayed frame grew the reservation to %d bytes", lim.Used())
	}
}

// TestBudgetedArenaDenies is the hard stop: an exhausted budget makes
// Alloc return nil rather than allocate past the ceiling.
func TestBudgetedArenaDenies(t *testing.T) {
	lim := NewLimiter(64*4, nil)
	a := NewBudgeted(lim)
	if b := a.Alloc(64); len(b) != 64 {
		t.Fatalf("Alloc within budget failed")
	}
	if b := a.Alloc(64); b != nil {
		t.Fatalf("Alloc past budget returned %d elems, want nil", len(b))
	}
	if lim.Used() != 64*4 {
		t.Fatalf("a denied Alloc left %d bytes reserved, want %d", lim.Used(), 64*4)
	}
	// The arena remains usable for allocations that fit what's left.
	a.Reset()
	if b := a.Alloc(32); len(b) != 32 {
		t.Fatalf("Alloc after Reset failed")
	}
}
