// Cohesive-group analysis on a social network (the paper's social
// network applications, [10]/[23] in its references): enumerate
// 4-cliques with a visitor, rank members by how many tightly-knit
// groups they belong to, and measure group overlap — the kind of
// analysis used to study the evolution and longevity of online groups.
//
// Run with:
//
//	go run ./examples/social
package main

import (
	"fmt"
	"log"
	"sort"

	"light"
)

func main() {
	g := light.GenerateBarabasiAlbert(3000, 6, 2024)
	fmt.Printf("social network: %v\n", g)

	clique4, err := light.PatternByName("clique4")
	if err != nil {
		log.Fatal(err)
	}

	// Enumerate every 4-clique once (symmetry breaking dedups) and
	// accumulate per-member statistics with a visitor. Four workers share
	// the search; the visitor is serialized for us.
	membership := make(map[light.VertexID]int)
	var cliques uint64
	res, err := light.Enumerate(g, clique4, light.Options{Workers: 4}, func(m []light.VertexID) bool {
		cliques++
		for _, v := range m {
			membership[v]++
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-cliques: %d (found in %v with %d workers)\n\n", res.Matches, res.Duration, 4)
	if cliques != res.Matches {
		log.Fatalf("visitor saw %d cliques, result says %d", cliques, res.Matches)
	}

	// Rank members by clique participation.
	type member struct {
		id light.VertexID
		n  int
	}
	ranked := make([]member, 0, len(membership))
	for v, n := range membership {
		ranked = append(ranked, member{v, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].id < ranked[j].id
	})
	fmt.Println("most clique-embedded members:")
	fmt.Printf("%8s %10s %8s\n", "member", "cliques", "degree")
	for i := 0; i < 10 && i < len(ranked); i++ {
		fmt.Printf("%8d %10d %8d\n", ranked[i].id, ranked[i].n, g.Degree(ranked[i].id))
	}

	// How concentrated is cohesion? A classic heavy-tail check.
	inAny := len(membership)
	fmt.Printf("\nmembers in ≥1 four-clique: %d of %d (%.1f%%)\n",
		inAny, g.NumVertices(), 100*float64(inAny)/float64(g.NumVertices()))
	top10 := 0
	for i := 0; i < len(ranked) && i < len(ranked)/10+1; i++ {
		top10 += ranked[i].n
	}
	total := 0
	for _, m := range ranked {
		total += m.n
	}
	if total > 0 {
		fmt.Printf("top 10%% of members hold %.1f%% of all clique memberships\n",
			100*float64(top10)/float64(total))
	}
}
