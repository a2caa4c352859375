package intersect

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"light/internal/bitset"
	"light/internal/graph"
)

// bm builds the bitmap form of a sorted set (nil input → empty bitmap).
func bm(s []graph.VertexID) *bitset.Bitmap { return bitset.FromSorted(s) }

func TestMergeBitmapFixed(t *testing.T) {
	cases := []struct{ a, hub, want []graph.VertexID }{
		{ids(), ids(), ids()},
		{ids(1, 2, 3), ids(), ids()},
		{ids(), ids(1, 2, 3), ids()},
		{ids(1, 2, 3), ids(2, 3, 4), ids(2, 3)},
		{ids(1, 3, 5), ids(2, 4, 6), ids()},
		{ids(1, 2, 3), ids(1, 2, 3), ids(1, 2, 3)},
		{ids(0, 63, 64, 65, 127, 128), ids(0, 64, 128), ids(0, 64, 128)},
		{ids(5, 1000, 2000), ids(1000), ids(1000)},
	}
	for ci, c := range cases {
		dst := make([]graph.VertexID, 0, len(c.a))
		n := MergeBitmap(dst, c.a, bm(c.hub), nil)
		got := dst[:n]
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: got %v, want %v", ci, got, c.want)
		}
	}
}

// TestMergeBitmapEquivalence is the core property: probing a's elements
// against FromSorted(b) must agree exactly with scalar Merge on (a, b).
func TestMergeBitmapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		a := randomSorted(rng, 120, 400)
		b := randomSorted(rng, 120, 400)
		want := refIntersect(a, b)
		dst := make([]graph.VertexID, 0, len(a))
		n := MergeBitmap(dst, a, bm(b), nil)
		got := dst[:n]
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d (a=%v b=%v)", trial, len(got), len(want), a, b)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

// TestMergeBitmapAlias pins the dst-aliases-a contract: probing writes
// position n <= the read cursor, so filtering in place is safe.
func TestMergeBitmapAlias(t *testing.T) {
	a := ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	hub := bm(ids(2, 4, 6, 8, 10, 12))
	n := MergeBitmap(a[:0], a, hub, nil)
	want := ids(2, 4, 6, 8, 10)
	if !reflect.DeepEqual(a[:n], want) {
		t.Fatalf("aliased MergeBitmap: got %v, want %v", a[:n], want)
	}
}

// TestMergeBitmapStats hand-counts the accounting: one intersection,
// len(a) elements scanned, len(a) bitmap probes.
func TestMergeBitmapStats(t *testing.T) {
	var st Stats
	dst := make([]graph.VertexID, 4)
	n := MergeBitmap(dst, ids(1, 2, 3, 4), bm(ids(2, 4, 100)), &st)
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	want := Stats{Intersections: 1, Elements: 4, BitmapProbes: 4}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// multiWayBitmapRef computes the expected intersection with the map
// reference, ignoring bitmaps entirely.
func multiWayBitmapRef(sets [][]graph.VertexID) []graph.VertexID {
	want := sets[0]
	for _, s := range sets[1:] {
		want = refIntersect(want, s)
	}
	return want
}

// TestMultiWayBitmapEquivalence randomizes hub/non-hub mixes: each
// operand independently carries its bitmap form or nil, and the result
// must equal the pure list MultiWay on the same operands.
func TestMultiWayBitmapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		sets := make([][]graph.VertexID, k)
		bitmaps := make([]*bitset.Bitmap, k)
		minLen := 1 << 30
		for i := range sets {
			sets[i] = randomSorted(rng, 60, 150)
			if rng.Intn(2) == 0 {
				bitmaps[i] = bm(sets[i])
			}
			if len(sets[i]) < minLen {
				minLen = len(sets[i])
			}
		}
		want := multiWayBitmapRef(sets)
		if k == 1 && minLen == 0 {
			continue // nothing to check; the single-empty-set case is covered elsewhere
		}
		dst := make([]graph.VertexID, minLen)
		scratch := make([]graph.VertexID, minLen)
		var st Stats
		n := MultiWay(dst, scratch, sets, bitmaps, KindHybridBitmap, DefaultDelta, &st)
		got := dst[:n]
		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d): len %d, want %d", trial, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

// TestMultiWayBitmapMixes spot-checks the dispatch corners: all
// operands bitmap-backed, none bitmap-backed (pure fallback), and only
// the smallest set bitmap-backed (its bitmap is never used — the base
// is iterated, so the call degrades to the list kernel).
func TestMultiWayBitmapMixes(t *testing.T) {
	a := ids(1, 2, 3)          // smallest → base
	b := ids(1, 2, 3, 4, 5, 6) // mid
	c := ids(2, 3, 4, 5, 6, 7, 8)
	want := ids(2, 3)
	run := func(name string, bitmaps []*bitset.Bitmap, wantProbes uint64) {
		t.Helper()
		sets := [][]graph.VertexID{a, b, c}
		dst := make([]graph.VertexID, 3)
		scratch := make([]graph.VertexID, 3)
		var st Stats
		n := MultiWay(dst, scratch, sets, bitmaps, KindHybridBitmap, DefaultDelta, &st)
		if !reflect.DeepEqual(dst[:n], want) {
			t.Fatalf("%s: got %v, want %v", name, dst[:n], want)
		}
		if wantProbes == 0 && st.BitmapProbes != 0 {
			t.Fatalf("%s: unexpected probes %d", name, st.BitmapProbes)
		}
		if wantProbes > 0 && st.BitmapProbes != wantProbes {
			t.Fatalf("%s: probes = %d, want %d", name, st.BitmapProbes, wantProbes)
		}
	}
	// All bitmap-backed: base {1,2,3} probes b (3 probes → {1,2,3}),
	// then probes c (3 probes → {2,3}).
	run("all-bitmaps", []*bitset.Bitmap{bm(a), bm(b), bm(c)}, 6)
	// None bitmap-backed: pure list fallback, zero probes.
	run("no-bitmaps", make([]*bitset.Bitmap, 3), 0)
	// Only the base has a bitmap: never probed, zero probes.
	run("base-only", []*bitset.Bitmap{bm(a), nil, nil}, 0)
	// One mid operand bitmap-backed: 3 probes against b, then a list
	// intersection with c.
	run("mixed", []*bitset.Bitmap{nil, bm(b), nil}, 3)
}

func TestMultiWayBitmapEmptyOperand(t *testing.T) {
	sets := [][]graph.VertexID{ids(1, 2), ids()}
	bitmaps := []*bitset.Bitmap{nil, bm(ids())}
	if n := MultiWay(nil, nil, sets, bitmaps, KindHybridBitmap, DefaultDelta, nil); n != 0 {
		t.Fatalf("empty operand: n = %d", n)
	}
	// Probe phase short-circuit: a bitmap pass that empties the base
	// stops before touching later operands.
	var st Stats
	sets = [][]graph.VertexID{ids(1), ids(2, 3), ids(1, 2, 3, 4)}
	bitmaps = []*bitset.Bitmap{nil, bm(ids(2, 3)), nil}
	dst := make([]graph.VertexID, 1)
	scratch := make([]graph.VertexID, 1)
	if n := MultiWay(dst, scratch, sets, bitmaps, KindHybridBitmap, DefaultDelta, &st); n != 0 {
		t.Fatalf("probe-emptied base: n = %d", n)
	}
	if st.Intersections != 1 {
		t.Fatalf("expected early exit after the probe pass, did %d intersections", st.Intersections)
	}
}

// TestQuickBitmapEquivalence property-checks MergeBitmap and a fully
// bitmap-backed MultiWay against the scalar reference on
// arbitrary inputs (the τ-boundary analogue: any set may be a "hub").
func TestQuickBitmapEquivalence(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := dedupSort(xs)
		b := dedupSort(ys)
		want := refIntersect(a, b)
		dst := make([]graph.VertexID, 0, len(a))
		n := MergeBitmap(dst, a, bm(b), nil)
		if n != len(want) {
			return false
		}
		for i := range want {
			if dst[:n][i] != want[i] {
				return false
			}
		}
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		minLen := len(a)
		if len(b) < minLen {
			minLen = len(b)
		}
		d2 := make([]graph.VertexID, minLen)
		s2 := make([]graph.VertexID, minLen)
		n2 := MultiWay(d2, s2, [][]graph.VertexID{a, b}, []*bitset.Bitmap{bm(a), bm(b)}, KindHybridBitmap, DefaultDelta, nil)
		if n2 != len(want) {
			return false
		}
		for i := range want {
			if d2[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBitmapKernels cross-checks MergeBitmap against Merge on fuzzer-
// chosen byte strings decoded as two sorted sets.
func FuzzBitmapKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0, 255})
	f.Add([]byte{7, 7, 7}, []byte{7})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		a := make([]graph.VertexID, 0, len(xb))
		for i, x := range xb {
			// Strictly increasing by construction: value + position ramp.
			a = append(a, graph.VertexID(x)+graph.VertexID(i)*256)
		}
		b := make([]graph.VertexID, 0, len(yb))
		for i, y := range yb {
			b = append(b, graph.VertexID(y)+graph.VertexID(i)*256)
		}
		want := make([]graph.VertexID, len(a))
		wn := Merge(want, a, b)
		dst := make([]graph.VertexID, len(a))
		gn := MergeBitmap(dst, a, bm(b), nil)
		if gn != wn {
			t.Fatalf("MergeBitmap = %d elements, Merge = %d (a=%v b=%v)", gn, wn, a, b)
		}
		for i := 0; i < wn; i++ {
			if dst[i] != want[i] {
				t.Fatalf("element %d: bitmap %d, merge %d", i, dst[i], want[i])
			}
		}
	})
}

func BenchmarkMergeBitmapVsGalloping(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	small := randomSorted(rng, 64, 1<<18)
	big := randomSorted(rng, 1<<15, 1<<18)
	hub := bm(big)
	dst := make([]graph.VertexID, len(small))
	b.Run("Galloping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Galloping(dst, small, big)
		}
	})
	b.Run("MergeBitmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MergeBitmap(dst, small, hub, nil)
		}
	})
}
