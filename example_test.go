package light_test

import (
	"fmt"
	"sort"

	"light"
)

// Counting a pattern on a small explicit graph.
func ExampleCount() {
	// A 5-cycle with one chord: 0-1-2-3-4-0 plus 0-2.
	g := light.NewGraph(5, [][2]light.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2},
	})
	p, _ := light.PatternByName("triangle")
	res, _ := light.Count(g, p, light.Options{})
	fmt.Println(res.Matches)
	// Output: 1
}

// Streaming matches with a visitor. Matches arrive in no particular
// order, so the example sorts them before printing.
func ExampleEnumerate() {
	g := light.NewGraph(4, [][2]light.VertexID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}) // K4
	p, _ := light.PatternByName("triangle")
	var rows []string
	light.Enumerate(g, p, light.Options{}, func(m []light.VertexID) bool {
		rows = append(rows, fmt.Sprint(m))
		return true
	})
	sort.Strings(rows)
	for _, r := range rows {
		fmt.Println(r)
	}
	// Output:
	// [0 1 2]
	// [0 1 3]
	// [0 2 3]
	// [1 2 3]
}

// Comparing the paper's algorithms on the same query.
func ExampleOptions() {
	g := light.GenerateBarabasiAlbert(500, 4, 1)
	p, _ := light.PatternByName("P2")
	se, _ := light.Count(g, p, light.Options{Algorithm: light.SE})
	li, _ := light.Count(g, p, light.Options{Algorithm: light.LIGHT})
	fmt.Println(se.Matches == li.Matches, se.Intersections >= li.Intersections)
	// Output: true true
}

// Defining a custom pattern.
func ExampleNewPattern() {
	// The "bull": a triangle with two horns.
	p, err := light.NewPattern("bull", 5, [][2]int{
		{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4},
	})
	if err != nil {
		panic(err)
	}
	g := light.GenerateBarabasiAlbert(400, 5, 3)
	res, _ := light.Count(g, p, light.Options{})
	fmt.Println(res.Matches > 0)
	// Output: true
}
