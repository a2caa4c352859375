package bitset

import (
	"math/rand"
	"sort"
	"testing"
)

func sortedUnique(r *rand.Rand, n int, max uint32) []uint32 {
	if int64(n) > int64(max)+1 {
		n = int(max) + 1 // only max+1 distinct values exist in [0, max]
	}
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[uint32(r.Int63n(int64(max)+1))] = true
	}
	out := make([]uint32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestEmpty(t *testing.T) {
	b := FromSorted(nil)
	for _, v := range []uint32{0, 1, 63, 64, 1 << 31, ^uint32(0)} {
		if b.Contains(v) {
			t.Errorf("empty bitmap contains %d", v)
		}
	}
	if b.Ones() != 0 || b.MemoryBytes() != 0 || b.Span() != 0 {
		t.Errorf("empty bitmap has Ones=%d MemoryBytes=%d Span=%d", b.Ones(), b.MemoryBytes(), b.Span())
	}
	var zero Bitmap
	if zero.Contains(0) {
		t.Error("zero-value bitmap contains 0")
	}
}

func TestSingle(t *testing.T) {
	for _, v := range []uint32{0, 1, 63, 64, 65, 1 << 20, ^uint32(0)} {
		b := FromSorted([]uint32{v})
		if !b.Contains(v) {
			t.Errorf("bitmap of {%d} misses %d", v, v)
		}
		if v > 0 && b.Contains(v-1) {
			t.Errorf("bitmap of {%d} contains %d", v, v-1)
		}
		if v < ^uint32(0) && b.Contains(v+1) {
			t.Errorf("bitmap of {%d} contains %d", v, v+1)
		}
		if b.Ones() != 1 || b.MemoryBytes() != 8 {
			t.Errorf("bitmap of {%d}: Ones=%d MemoryBytes=%d", v, b.Ones(), b.MemoryBytes())
		}
	}
}

// TestWordBoundaries exercises spans that end exactly at, one short of,
// and one past a 64-bit word edge, where an off-by-one in the word
// count silently drops the top values.
func TestWordBoundaries(t *testing.T) {
	for _, span := range []int{62, 63, 64, 65, 127, 128, 129} {
		for _, lo := range []uint32{0, 1, 63, 64, 1000} {
			vs := []uint32{lo, lo + uint32(span) - 1}
			b := FromSorted(vs)
			for _, v := range vs {
				if !b.Contains(v) {
					t.Fatalf("span=%d lo=%d: missing %d", span, lo, v)
				}
			}
			if b.Contains(lo + uint32(span)) {
				t.Fatalf("span=%d lo=%d: contains one past the end", span, lo)
			}
		}
	}
}

// TestRandomAgainstMap is the membership property test: a bitmap built
// from a random sorted set answers Contains exactly like the set, for
// members, non-members inside the span, and values outside it.
func TestRandomAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		max := uint32(1 + r.Intn(10000))
		n := 1 + r.Intn(200)
		if int64(n) > int64(max) {
			n = int(max)
		}
		vs := sortedUnique(r, n, max)
		b := FromSorted(vs)
		if b.Ones() != len(vs) || b.count() != len(vs) {
			t.Fatalf("trial %d: Ones=%d popcount=%d want %d", trial, b.Ones(), b.count(), len(vs))
		}
		in := map[uint32]bool{}
		for _, v := range vs {
			in[v] = true
		}
		for q := uint32(0); q <= max; q++ {
			if b.Contains(q) != in[q] {
				t.Fatalf("trial %d: Contains(%d)=%v want %v", trial, q, b.Contains(q), in[q])
			}
		}
		// Probes far outside the span in both directions.
		if vs[0] > 0 && b.Contains(vs[0]-1) && !in[vs[0]-1] {
			t.Fatalf("trial %d: below-span false positive", trial)
		}
		if b.Contains(^uint32(0)) && !in[^uint32(0)] {
			t.Fatalf("trial %d: above-span false positive", trial)
		}
	}
}

func TestEstimateBytes(t *testing.T) {
	cases := []struct {
		lo, hi uint32
		want   int64
	}{
		{0, 0, 8}, {0, 63, 8}, {0, 64, 16}, {5, 5, 8},
		{100, 99, 0}, {0, 127, 16}, {0, 128, 24},
	}
	for _, c := range cases {
		if got := EstimateBytes(c.lo, c.hi); got != c.want {
			t.Errorf("EstimateBytes(%d,%d)=%d want %d", c.lo, c.hi, got, c.want)
		}
	}
	// Estimate must agree with what FromSorted actually allocates.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		vs := sortedUnique(r, 1+r.Intn(50), uint32(1+r.Intn(5000)))
		b := FromSorted(vs)
		if got := EstimateBytes(vs[0], vs[len(vs)-1]); got != b.MemoryBytes() {
			t.Fatalf("trial %d: estimate %d != actual %d", trial, got, b.MemoryBytes())
		}
	}
}

func TestContainsZeroAlloc(t *testing.T) {
	b := FromSorted([]uint32{3, 70, 500})
	if n := testing.AllocsPerRun(100, func() {
		_ = b.Contains(70)
		_ = b.Contains(71)
		_ = b.Contains(0)
	}); n != 0 {
		t.Fatalf("Contains allocates %v per run", n)
	}
}

// TestOverAddRemove pins the mutable bitmap marks are built on: Over
// clears storage it is handed dirty, and Add and Remove set and clear
// exactly the given members.
func TestOverAddRemove(t *testing.T) {
	words := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	b := Over(words)
	if b.Ones() != 0 || b.count() != 0 || b.Span() != 192 {
		t.Fatalf("Over: ones %d, set bits %d, span %d; want an empty 192-bit span", b.Ones(), b.count(), b.Span())
	}
	first, second := []uint32{0, 63, 64, 191}, []uint32{5, 64 + 7, 130}
	b.Add(first)
	b.Remove(first)
	b.Add(second)
	for v := uint32(0); v < 200; v++ {
		want := v == 5 || v == 71 || v == 130
		if b.Contains(v) != want {
			t.Fatalf("Contains(%d) = %v, want %v", v, !want, want)
		}
	}
	if b.Ones() != len(second) || b.count() != len(second) {
		t.Fatalf("ones %d, set bits %d, want %d", b.Ones(), b.count(), len(second))
	}
}
