// Package setcover solves the minimum set cover instances arising in the
// paper's Algorithm 3: the universe is N+(u) (at most n-1 pattern
// vertices) and the collection has at most 2(n-1) sets, so the exact
// exponential search the paper uses (O(4^n) total across all vertices) is
// the right tool.
package setcover

import "math/bits"

// Exact returns the indices of a minimum sub-collection of sets whose
// union covers universe (a bitmask). Sets are bitmasks too. If the union
// of all sets does not cover the universe, ok is false.
//
// Ties are broken toward the earliest sets in the slice, so callers can
// order candidates by preference (Algorithm 3 prefers any optimal cover;
// our engines put larger, more-reusable sets first for determinism).
func Exact(universe uint32, sets []uint32) (cover []int, ok bool) {
	if universe == 0 {
		return nil, true
	}
	all := uint32(0)
	for _, s := range sets {
		all |= s
	}
	if all&universe != universe {
		return nil, false
	}
	// Iterative deepening over cover size: with ≤ ~30 sets and tiny
	// optimal sizes (≤ |universe| thanks to the singletons the caller
	// adds), this explores few nodes.
	for size := 1; size <= bits.OnesCount32(universe); size++ {
		if cover := search(universe, sets, size, nil); cover != nil {
			return cover, true
		}
	}
	return nil, false
}

// search looks for a cover of at most budget sets. It branches on the
// lowest uncovered universe element: some chosen set must contain it.
func search(remaining uint32, sets []uint32, budget int, chosen []int) []int {
	if remaining == 0 {
		out := make([]int, len(chosen))
		copy(out, chosen)
		return out
	}
	if budget == 0 {
		return nil
	}
	elem := remaining & -remaining
	for i, s := range sets {
		if s&elem == 0 {
			continue
		}
		if got := search(remaining&^s, sets, budget-1, append(chosen, i)); got != nil {
			return got
		}
	}
	return nil
}
