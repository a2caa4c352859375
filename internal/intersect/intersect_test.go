package intersect

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"light/internal/bitset"
	"light/internal/graph"
)

// ids converts ints to VertexIDs for test brevity.
func ids(xs ...int) []graph.VertexID {
	out := make([]graph.VertexID, len(xs))
	for i, x := range xs {
		out[i] = graph.VertexID(x)
	}
	return out
}

// refIntersect is the trivially correct reference.
func refIntersect(a, b []graph.VertexID) []graph.VertexID {
	in := map[graph.VertexID]bool{}
	for _, x := range a {
		in[x] = true
	}
	var out []graph.VertexID
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomSorted returns a strictly sorted random set of size up to maxLen
// over [0, universe).
func randomSorted(rng *rand.Rand, maxLen, universe int) []graph.VertexID {
	n := rng.Intn(maxLen + 1)
	seen := map[graph.VertexID]bool{}
	for len(seen) < n {
		seen[graph.VertexID(rng.Intn(universe))] = true
	}
	out := make([]graph.VertexID, 0, n)
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func runKernel(k Kind, a, b []graph.VertexID) []graph.VertexID {
	capN := len(a)
	if len(b) < capN {
		capN = len(b)
	}
	dst := make([]graph.VertexID, 0, capN)
	n := Pair(dst, a, b, k, DefaultDelta, nil)
	return dst[:n]
}

// allKinds includes the bitmap kinds: through Pair they must behave
// exactly like their list fallbacks (Pair has no bitmap operands).
var allKinds = []Kind{KindMerge, KindMergeBlock, KindGalloping, KindHybrid, KindHybridBlock, KindHybridBitmap}

func TestKernelsFixedCases(t *testing.T) {
	cases := []struct{ a, b, want []graph.VertexID }{
		{ids(), ids(), ids()},
		{ids(1), ids(), ids()},
		{ids(), ids(1), ids()},
		{ids(1, 2, 3), ids(2, 3, 4), ids(2, 3)},
		{ids(1, 3, 5, 7), ids(2, 4, 6, 8), ids()},
		{ids(1, 2, 3), ids(1, 2, 3), ids(1, 2, 3)},
		{ids(5), ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), ids(5)},
		{ids(0, 100, 200, 300), ids(0, 1, 2, 3, 4, 5, 6, 7, 100, 300, 301, 302, 303, 304, 305, 306, 307), ids(0, 100, 300)},
	}
	for _, k := range allKinds {
		for ci, c := range cases {
			got := runKernel(k, c.a, c.b)
			if len(got) == 0 && len(c.want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%v case %d: got %v, want %v", k, ci, got, c.want)
			}
		}
	}
}

func TestKernelsAgreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		a := randomSorted(rng, 120, 300)
		b := randomSorted(rng, 120, 300)
		want := refIntersect(a, b)
		for _, k := range allKinds {
			got := runKernel(k, a, b)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d kernel %v: got %v, want %v (a=%v b=%v)", trial, k, got, want, a, b)
			}
		}
	}
}

func TestKernelsSkewed(t *testing.T) {
	// Heavy skew exercises the galloping path inside Hybrid.
	rng := rand.New(rand.NewSource(5))
	big := randomSorted(rng, 5000, 20000)
	for trial := 0; trial < 50; trial++ {
		small := randomSorted(rng, 8, 20000)
		want := refIntersect(small, big)
		for _, k := range allKinds {
			got := runKernel(k, small, big)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kernel %v skewed: got %v, want %v", k, got, want)
			}
			// Symmetric argument order must agree too.
			got2 := runKernel(k, big, small)
			if !reflect.DeepEqual(got2, got) {
				t.Fatalf("kernel %v not symmetric", k)
			}
		}
	}
}

func TestDstMayAliasA(t *testing.T) {
	for _, k := range allKinds {
		a := ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)
		b := ids(2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36)
		n := Pair(a[:0], a, b, k, DefaultDelta, nil)
		want := ids(2, 4, 6, 8, 10, 12, 14, 16, 18)
		if !reflect.DeepEqual(a[:n], want) {
			t.Errorf("%v with dst aliasing a: got %v, want %v", k, a[:n], want)
		}
	}
}

func TestHybridDispatch(t *testing.T) {
	var st Stats
	small := ids(1)
	big := make([]graph.VertexID, 100)
	for i := range big {
		big[i] = graph.VertexID(2 * i)
	}
	dst := make([]graph.VertexID, 0, len(big))
	Pair(dst, small, big, KindHybrid, DefaultDelta, &st) // ratio 100 ≥ 50 → galloping
	if st.Galloping != 1 || st.Intersections != 1 {
		t.Fatalf("skewed pair not dispatched to galloping: %+v", st)
	}
	Pair(dst, big[:50], big, KindHybrid, DefaultDelta, &st) // ratio 2 < 50 → merge
	if st.Galloping != 1 || st.Intersections != 2 {
		t.Fatalf("balanced pair dispatched wrongly: %+v", st)
	}
	if p := st.GallopingPercent(); p != 50 {
		t.Fatalf("GallopingPercent = %v, want 50", p)
	}
	// Empty input counts as skewed (O(1) instead of O(len)).
	Pair(dst, nil, big, KindHybrid, DefaultDelta, &st)
	if st.Galloping != 2 {
		t.Fatalf("empty set should gallop: %+v", st)
	}
}

func TestCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		a := randomSorted(rng, 80, 150)
		b := randomSorted(rng, 80, 150)
		if got, want := Count(a, b, DefaultDelta, nil), len(refIntersect(a, b)); got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
	}
	// Force both dispatch paths. A nil stats must be accepted.
	if Count(ids(1), ids(1, 2, 3), 1, nil) != 1 {
		t.Fatal("galloping count wrong")
	}
	if Count(ids(1, 2), ids(2, 3), 100, nil) != 1 {
		t.Fatal("merge count wrong")
	}
}

// TestCountStats is the regression test for the counter-parity bugfix:
// Count used to bypass *Stats entirely, so counting-mode intersections
// and scanned elements never reached reports. Every expectation below
// is hand-counted.
func TestCountStats(t *testing.T) {
	var st Stats
	// Merge path: |a|=4, |b|=3, ratio 4/3 < δ=50. One intersection,
	// 4+3=7 elements, no galloping, |a ∩ b| = |{2,4}| = 2.
	if got := Count(ids(1, 2, 3, 4), ids(2, 4, 6), DefaultDelta, &st); got != 2 {
		t.Fatalf("merge-path Count = %d, want 2", got)
	}
	if st.Intersections != 1 || st.Elements != 7 || st.Galloping != 0 {
		t.Fatalf("merge-path stats = %+v, want {Intersections:1 Elements:7 Galloping:0}", st)
	}
	// Galloping path: δ=1 makes the 2/2 ratio skewed. Second
	// intersection, 2+2=4 more elements (11 total), one gallop.
	if got := Count(ids(1, 2), ids(2, 3), 1, &st); got != 1 {
		t.Fatalf("galloping-path Count = %d, want 1", got)
	}
	if st.Intersections != 2 || st.Elements != 11 || st.Galloping != 1 {
		t.Fatalf("galloping-path stats = %+v, want {Intersections:2 Elements:11 Galloping:1}", st)
	}
	// Empty input is skewed by definition: gallops, scans 0+3 elements.
	if got := Count(nil, ids(1, 2, 3), DefaultDelta, &st); got != 0 {
		t.Fatalf("empty Count = %d, want 0", got)
	}
	if st.Intersections != 3 || st.Elements != 14 || st.Galloping != 2 {
		t.Fatalf("empty-input stats = %+v, want {Intersections:3 Elements:14 Galloping:2}", st)
	}
	// Count and Pair must account identically for the same operands, so
	// counting-mode runs stay counter-comparable with materializing runs.
	var cs, ps Stats
	a, b := ids(1, 2, 3, 4), ids(2, 4, 6)
	Count(a, b, DefaultDelta, &cs)
	Pair(make([]graph.VertexID, 3), a, b, KindHybrid, DefaultDelta, &ps)
	if cs != ps {
		t.Fatalf("Count stats %+v != Pair stats %+v for identical operands", cs, ps)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	f()
}

// TestMultiWayCapacityEdges is the regression table for the silent-
// truncation bugfix: the single-set path used to copy(dst[:cap(dst)],
// sets[0]) and return the truncated count when dst was undersized.
// Cases cover the 0/1/2/k-set capacity edges.
func TestMultiWayCapacityEdges(t *testing.T) {
	sets := func(ss ...[]graph.VertexID) [][]graph.VertexID { return ss }
	// 0 sets: nil dst is fine, result 0.
	if n := MultiWay(nil, nil, nil, nil, KindMerge, DefaultDelta, nil); n != 0 {
		t.Fatalf("0 sets: n = %d", n)
	}
	// 1 empty set: zero-capacity dst satisfies the contract.
	if n := MultiWay(nil, nil, sets(ids()), nil, KindMerge, DefaultDelta, nil); n != 0 {
		t.Fatalf("1 empty set: n = %d", n)
	}
	// 1 set, exact capacity: full copy.
	dst3 := make([]graph.VertexID, 3)
	if n := MultiWay(dst3, nil, sets(ids(7, 8, 9)), nil, KindMerge, DefaultDelta, nil); n != 3 {
		t.Fatalf("1 set exact cap: n = %d, want 3", n)
	}
	// 1 set, undersized dst: must panic, not return a truncated count.
	mustPanic(t, "MultiWay 1 set cap 2 < len 3", func() {
		MultiWay(make([]graph.VertexID, 2), nil, sets(ids(7, 8, 9)), nil, KindMerge, DefaultDelta, nil)
	})
	mustPanic(t, "MultiWay 1 set nil dst", func() {
		MultiWay(nil, nil, sets(ids(1)), nil, KindMerge, DefaultDelta, nil)
	})
	// 2 sets: capacity = min set length is sufficient by contract.
	dst1 := make([]graph.VertexID, 1)
	scratch1 := make([]graph.VertexID, 1)
	if n := MultiWay(dst1, scratch1, sets(ids(2), ids(1, 2, 3)), nil, KindMerge, DefaultDelta, nil); n != 1 || dst1[0] != 2 {
		t.Fatalf("2 sets: n = %d dst = %v", n, dst1)
	}
	// k sets with an empty operand: min length 0, zero-capacity buffers.
	if n := MultiWay(nil, nil, sets(ids(1, 2), ids(), ids(3)), nil, KindMerge, DefaultDelta, nil); n != 0 {
		t.Fatalf("k sets with empty operand: n = %d", n)
	}
	// The single-set contract holds with bitmaps too.
	mustPanic(t, "MultiWay with bitmaps 1 set cap 0 < len 2", func() {
		MultiWay(nil, nil, sets(ids(1, 2)), make([]*bitset.Bitmap, 1), KindHybridBitmap, DefaultDelta, nil)
	})
}

func TestContains(t *testing.T) {
	s := ids(2, 4, 6, 8)
	for _, x := range []int{2, 4, 6, 8} {
		if !Contains(s, graph.VertexID(x)) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []int{0, 1, 3, 5, 7, 9} {
		if Contains(s, graph.VertexID(x)) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains on empty set")
	}
}

func TestMultiWay(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		sets := make([][]graph.VertexID, k)
		minLen := 1 << 30
		for i := range sets {
			sets[i] = randomSorted(rng, 60, 100)
			if len(sets[i]) < minLen {
				minLen = len(sets[i])
			}
		}
		want := sets[0]
		for _, s := range sets[1:] {
			want = refIntersect(want, s)
		}
		dst := make([]graph.VertexID, minLen)
		scratch := make([]graph.VertexID, minLen)
		var st Stats
		n := MultiWay(dst, scratch, sets, nil, KindHybrid, DefaultDelta, &st)
		got := dst[:n]
		if len(got) != len(want) {
			t.Fatalf("trial %d: MultiWay len %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: MultiWay[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
		if k >= 2 && st.Intersections == 0 {
			t.Fatal("stats not recorded")
		}
		if st.Intersections > uint64(k-1) {
			t.Fatalf("MultiWay did %d intersections for %d sets (early exit broken?)", st.Intersections, k)
		}
	}
}

func TestMultiWayEdgeCases(t *testing.T) {
	if n := MultiWay(nil, nil, nil, nil, KindMerge, DefaultDelta, nil); n != 0 {
		t.Fatalf("empty MultiWay = %d", n)
	}
	dst := make([]graph.VertexID, 3)
	if n := MultiWay(dst, nil, [][]graph.VertexID{ids(1, 2, 3)}, nil, KindMerge, DefaultDelta, nil); n != 3 {
		t.Fatalf("single-set MultiWay = %d, want 3", n)
	}
	// An empty operand short-circuits: one intersection at most.
	var st Stats
	scratch := make([]graph.VertexID, 3)
	n := MultiWay(dst, scratch, [][]graph.VertexID{ids(1, 2), ids(), ids(1)}, nil, KindMerge, DefaultDelta, &st)
	if n != 0 {
		t.Fatalf("MultiWay with empty operand = %d, want 0", n)
	}
	if st.Intersections != 1 {
		t.Fatalf("expected early exit after 1 intersection, did %d", st.Intersections)
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range allKinds {
		if name := k.String(); name == "Unknown" || seen[name] {
			t.Errorf("kind %d prints %q", k, name)
		} else {
			seen[name] = true
		}
	}
	if Kind(99).String() != "Unknown" {
		t.Error("unknown Kind String")
	}
}

// TestQuickKernelEquivalence property-checks all kernels against the map
// reference on arbitrary inputs.
func TestQuickKernelEquivalence(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := dedupSort(xs)
		b := dedupSort(ys)
		want := refIntersect(a, b)
		for _, k := range allKinds {
			got := runKernel(k, a, b)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func dedupSort(xs []uint16) []graph.VertexID {
	seen := map[graph.VertexID]bool{}
	for _, x := range xs {
		seen[graph.VertexID(x)] = true
	}
	out := make([]graph.VertexID, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	balanced := [2][]graph.VertexID{randomSorted(rng, 4096, 1<<20), randomSorted(rng, 4096, 1<<20)}
	skewed := [2][]graph.VertexID{randomSorted(rng, 32, 1<<20), randomSorted(rng, 8192, 1<<20)}
	dst := make([]graph.VertexID, 8192)
	for _, k := range allKinds {
		b.Run(k.String()+"/balanced", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Pair(dst, balanced[0], balanced[1], k, DefaultDelta, nil)
			}
		})
		b.Run(k.String()+"/skewed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Pair(dst, skewed[0], skewed[1], k, DefaultDelta, nil)
			}
		})
	}
}

func TestMergeBlockLaneBoundaries(t *testing.T) {
	// Adversarial inputs around the 8-lane block size: equal runs, runs
	// straddling block edges, and lengths exactly at multiples of 8.
	mk := func(start, n, step int) []graph.VertexID {
		out := make([]graph.VertexID, n)
		for i := range out {
			out[i] = graph.VertexID(start + i*step)
		}
		return out
	}
	cases := [][2][]graph.VertexID{
		{mk(0, 16, 1), mk(0, 16, 1)},   // identical, two full blocks
		{mk(0, 16, 1), mk(8, 16, 1)},   // half-overlap at block edge
		{mk(0, 24, 2), mk(1, 24, 2)},   // fully interleaved, no matches
		{mk(0, 8, 1), mk(0, 9, 1)},     // one exactly a block, one not
		{mk(0, 17, 3), mk(0, 17, 5)},   // coprime strides
		{mk(0, 8, 100), mk(700, 8, 1)}, // disjoint ranges, block skip path
	}
	for i, c := range cases {
		want := refIntersect(c[0], c[1])
		got := runKernel(KindMergeBlock, c[0], c[1])
		if len(got) != len(want) {
			t.Fatalf("case %d: got %v, want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, want)
			}
		}
	}
}

// fuzzSet decodes a fuzzer byte string as a strictly increasing set:
// each byte is the gap to the previous element, so runs of small bytes
// give dense overlapping stretches and large ones let a side race ahead
// of the other's 8-lane blocks.
func fuzzSet(bs []byte) []graph.VertexID {
	s := make([]graph.VertexID, 0, len(bs))
	v := graph.VertexID(0)
	for _, x := range bs {
		v += 1 + graph.VertexID(x)
		s = append(s, v)
	}
	return s
}

// FuzzMergeKernels cross-checks MergeBlock, Count and Galloping against
// the plain two-pointer Merge, and CountLess against a double loop, on
// fuzzer-chosen sets. The destinations have capacity exactly min(len a,
// len b), the kernels' contract, and MergeBlock also runs with dst
// aliasing a.
func FuzzMergeKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{}, []byte{3})
	f.Add([]byte{200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 250, 0, 0})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		a, b := fuzzSet(xb), fuzzSet(yb)
		capN := min(len(a), len(b))
		want := make([]graph.VertexID, capN)
		wn := Merge(want, a, b)
		want = want[:wn]
		check := func(name string, dst []graph.VertexID, n int) {
			t.Helper()
			if n != wn {
				t.Fatalf("%s = %v, Merge = %v (a=%v b=%v)", name, dst[:n], want, a, b)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("%s = %v, Merge = %v (a=%v b=%v)", name, dst[:n], want, a, b)
				}
			}
		}
		dst := make([]graph.VertexID, capN)
		check("MergeBlock", dst, MergeBlock(dst, a, b))
		dst = make([]graph.VertexID, capN)
		check("Galloping", dst, Galloping(dst, a, b))
		alias := append([]graph.VertexID(nil), a...)
		check("MergeBlock aliasing a", alias, MergeBlock(alias[:capN], alias, b))
		for _, delta := range []int{1, DefaultDelta} {
			if n := Count(a, b, delta, nil); n != wn {
				t.Fatalf("Count(δ=%d) = %d, Merge = %d (a=%v b=%v)", delta, n, wn, a, b)
			}
		}
		var less uint64
		for _, x := range a {
			for _, y := range b {
				if x < y {
					less++
				}
			}
		}
		if n := CountLess(a, b, nil); n != less {
			t.Fatalf("CountLess = %d, want %d (a=%v b=%v)", n, less, a, b)
		}
	})
}
