package setcover

import (
	"math/bits"
	"math/rand"
	"testing"
)

func union(sets []uint32, idx []int) uint32 {
	var u uint32
	for _, i := range idx {
		u |= sets[i]
	}
	return u
}

func TestExactBasics(t *testing.T) {
	// Empty universe needs nothing.
	if c, ok := Exact(0, nil); !ok || len(c) != 0 {
		t.Fatalf("empty universe: %v %v", c, ok)
	}
	// Uncoverable.
	if _, ok := Exact(0b111, []uint32{0b001, 0b010}); ok {
		t.Fatal("coverable claim for uncoverable instance")
	}
	// The Example V.1 instance: U={u0,u2} (bits 0,2), S = {{u0},{u2},{u0,u2}}.
	cover, ok := Exact(0b101, []uint32{0b001, 0b100, 0b101})
	if !ok || len(cover) != 1 || cover[0] != 2 {
		t.Fatalf("Example V.1: cover = %v, want [2]", cover)
	}
}

func TestExactPrefersFewestSets(t *testing.T) {
	// Two singletons vs one doubleton: the doubleton wins.
	cover, ok := Exact(0b11, []uint32{0b01, 0b10, 0b11})
	if !ok || len(cover) != 1 {
		t.Fatalf("cover = %v", cover)
	}
	// Three elements; best is {0b110, 0b001} (2 sets) not three singletons.
	cover, ok = Exact(0b111, []uint32{0b001, 0b010, 0b100, 0b110})
	if !ok || len(cover) != 2 {
		t.Fatalf("cover = %v, want size 2", cover)
	}
	if union([]uint32{0b001, 0b010, 0b100, 0b110}, cover) != 0b111 {
		t.Fatal("cover does not cover universe")
	}
}

// exactBrute finds the true optimum by trying all subsets of sets.
func exactBrute(universe uint32, sets []uint32) int {
	best := -1
	for mask := 0; mask < 1<<len(sets); mask++ {
		var u uint32
		for i := range sets {
			if mask&(1<<i) != 0 {
				u |= sets[i]
			}
		}
		if u&universe == universe {
			if best == -1 || bits.OnesCount(uint(mask)) < best {
				best = bits.OnesCount(uint(mask))
			}
		}
	}
	return best
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		nSets := 1 + rng.Intn(10)
		sets := make([]uint32, nSets)
		for i := range sets {
			sets[i] = uint32(rng.Intn(64)) // universe up to 6 elements
		}
		universe := uint32(rng.Intn(64))
		cover, ok := Exact(universe, sets)
		want := exactBrute(universe, sets)
		if (want == -1) == ok {
			t.Fatalf("trial %d: feasibility mismatch (brute %d, ok %v)", trial, want, ok)
		}
		if ok {
			if union(sets, cover)&universe != universe {
				t.Fatalf("trial %d: cover incomplete", trial)
			}
			covLen := len(cover)
			if universe == 0 {
				covLen = 0
			}
			if covLen != want && !(universe == 0 && want == 0) {
				t.Fatalf("trial %d: |cover| = %d, brute optimum %d", trial, covLen, want)
			}
		}
	}
}
