package arena

import (
	"testing"

	"light/internal/graph"
)

func TestAllocBasics(t *testing.T) {
	a := New()
	if got := a.Alloc(0); got != nil {
		t.Fatalf("Alloc(0) = %v, want nil", got)
	}
	if a.Bytes() != 0 {
		t.Fatalf("empty arena reports %d bytes", a.Bytes())
	}
	b1 := a.Alloc(10)
	b2 := a.Alloc(20)
	if len(b1) != 10 || cap(b1) != 10 || len(b2) != 20 || cap(b2) != 20 {
		t.Fatalf("Alloc returned len/cap %d/%d and %d/%d", len(b1), cap(b1), len(b2), cap(b2))
	}
	// Distinct allocations must not overlap: writes to one are invisible
	// in the other.
	for i := range b1 {
		b1[i] = 1
	}
	for i := range b2 {
		b2[i] = 2
	}
	for i, v := range b1 {
		if v != 1 {
			t.Fatalf("b1[%d] corrupted to %d by a later allocation", i, v)
		}
	}
	if a.Bytes() != int64(chunkElems)*4 {
		t.Fatalf("arena reports %d bytes, want one chunk (%d)", a.Bytes(), int64(chunkElems)*4)
	}
}

// TestCapacityClipped pins the three-index slice: appending past an
// allocation reallocates instead of bleeding into its neighbor.
func TestCapacityClipped(t *testing.T) {
	a := New()
	b1 := a.Alloc(4)
	b2 := a.Alloc(4)
	b2[0] = 7
	b1 = append(b1, 99)
	if b2[0] != 7 {
		t.Fatalf("append past b1 overwrote b2[0] = %d", b2[0])
	}
	_ = b1
}

func TestOversizedAlloc(t *testing.T) {
	a := New()
	big := a.Alloc(chunkElems * 3)
	if len(big) != chunkElems*3 {
		t.Fatalf("oversized Alloc returned %d elements", len(big))
	}
	if a.Bytes() != int64(chunkElems)*3*4 {
		t.Fatalf("arena reports %d bytes after oversized alloc", a.Bytes())
	}
	// The oversized slab is reusable after Reset like any other.
	a.Reset()
	again := a.Alloc(chunkElems * 2)
	if len(again) != chunkElems*2 {
		t.Fatalf("post-reset Alloc returned %d elements", len(again))
	}
	if a.Bytes() != int64(chunkElems)*3*4 {
		t.Fatalf("reset grew the arena to %d bytes", a.Bytes())
	}
}

// TestResetReuse is the steady-state contract: once a frame's footprint
// has been served, the same sequence of allocations after Reset reuses
// the slabs and performs zero heap allocations.
func TestResetReuse(t *testing.T) {
	a := New()
	sizes := []int{100, 5000, 1, chunkElems, 37}
	frame := func() {
		for _, n := range sizes {
			buf := a.Alloc(n)
			if len(buf) != n {
				t.Fatalf("Alloc(%d) returned %d elements", n, len(buf))
			}
		}
		a.Reset()
	}
	frame() // warm-up growth
	before := a.Bytes()
	if n := testing.AllocsPerRun(10, frame); n != 0 {
		t.Fatalf("steady-state frame allocates %v per run", n)
	}
	if a.Bytes() != before {
		t.Fatalf("steady-state frames grew the arena %d -> %d bytes", before, a.Bytes())
	}
}

// TestSpillToSecondSlab forces an allocation that does not fit the
// remaining space of the first slab and checks the cursor walks to a
// fresh slab without clobbering live data.
func TestSpillToSecondSlab(t *testing.T) {
	a := New()
	first := a.Alloc(chunkElems - 5)
	first[0] = 11
	second := a.Alloc(100) // does not fit the 5 remaining elements
	second[0] = 22
	if first[0] != 11 {
		t.Fatalf("spill clobbered the first slab: %d", first[0])
	}
	if len(a.slabs) != 2 {
		t.Fatalf("expected 2 slabs, have %d", len(a.slabs))
	}
	// After Reset the same sequence lands in the same slabs, no growth.
	a.Reset()
	_ = a.Alloc(chunkElems - 5)
	_ = a.Alloc(100)
	if len(a.slabs) != 2 {
		t.Fatalf("reset replay grew to %d slabs", len(a.slabs))
	}
}

func TestZeroValueUsable(t *testing.T) {
	var a Arena
	buf := a.Alloc(8)
	buf[7] = graph.VertexID(3)
	if len(buf) != 8 {
		t.Fatalf("zero-value arena Alloc returned %d elements", len(buf))
	}
}

// TestWords pins the words marks use: zeroed, outside the slabs so a
// Reset and later Allocs never reach them, counted in Bytes, and nil
// where a budget denies them.
func TestWords(t *testing.T) {
	a := New()
	a.Alloc(3)
	words := a.Words(5)
	if len(words) != 5 {
		t.Fatalf("Words(5) returned %d words", len(words))
	}
	for i := range words {
		if words[i] != 0 {
			t.Fatalf("Words returned word %d = %#x, want 0", i, words[i])
		}
		words[i] = ^uint64(0)
	}
	a.Reset()
	for i, v := range a.Alloc(chunkElems) {
		if v != 0 {
			t.Fatalf("a slab allocation after Reset holds the words' bits at [%d] = %d", i, v)
		}
	}
	if want := int64(chunkElems)*4 + 5*8; a.Bytes() != want {
		t.Fatalf("arena reports %d bytes, want one slab plus the words, %d", a.Bytes(), want)
	}
	lim := NewLimiter(16, nil)
	if got := NewBudgeted(lim).Words(3); got != nil {
		t.Fatalf("a 16-byte budget granted %d words", len(got))
	}
	if got := NewBudgeted(lim).Words(2); len(got) != 2 || lim.Used() != 16 {
		t.Fatalf("a 16-byte budget granted %d of 2 words, used %d bytes", len(got), lim.Used())
	}
}
