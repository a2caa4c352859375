package engine

import (
	"testing"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/lanes"
	"light/internal/pattern"
	"light/internal/plan"
)

// laneRefFilter builds the sequential-reference filter equivalent to a
// lane Spec: reject roots outside the root set and assignments below
// the degree threshold. Running the engine alone under this filter is,
// by definition, the ground truth a lane's attributed counters must
// reproduce.
func laneRefFilter(g *graph.Graph, pl *plan.Plan, sp lanes.Spec) func(u int, v graph.VertexID) bool {
	var inRoots map[graph.VertexID]bool
	if sp.Roots != nil {
		inRoots = make(map[graph.VertexID]bool, len(sp.Roots))
		for _, v := range sp.Roots {
			inRoots[v] = true
		}
	}
	root := pl.Pi[0]
	return func(u int, v graph.VertexID) bool {
		if inRoots != nil && u == root && !inRoots[v] {
			return false
		}
		return g.Degree(v) >= sp.MinDegree
	}
}

func laneSpecs(g *graph.Graph) []lanes.Spec {
	n := g.NumVertices()
	var even, firstHalf []graph.VertexID
	for v := 0; v < n; v++ {
		if v%2 == 0 {
			even = append(even, graph.VertexID(v))
		}
		if v < n/2 {
			firstHalf = append(firstHalf, graph.VertexID(v))
		}
	}
	return []lanes.Spec{
		{}, // the unrestricted lane: must reproduce a plain run exactly
		{Roots: even},
		{MinDegree: 3},
		{Roots: firstHalf, MinDegree: 2},
		{MinDegree: 1000}, // dead everywhere on these graphs
	}
}

// TestLaneParityMatrix is the deterministic lane parity sweep: for
// seeded graphs × the full pattern catalog × kernels, a lane-batched
// run's per-lane counters (matches, nodes, comps, and the full
// intersection stats) must equal, bit for bit, what a sequential run of
// each lane's query alone reports.
func TestLaneParityMatrix(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(80, 240, 7)},
		{"ba", gen.BarabasiAlbert(120, 3, 9)},
		{"starchords", gen.StarChords(40, 60, 5)},
	}
	for _, tg := range graphs {
		tg.g.BuildHubIndex(3)
	}
	kernels := []intersect.Kind{intersect.KindHybrid, intersect.KindHybridBitmap}
	for _, tg := range graphs {
		specs := laneSpecs(tg.g)
		for _, p := range pattern.Catalog() {
			pl := compile(t, p)
			for _, k := range kernels {
				set, err := lanes.NewSet(tg.g.NumVertices(), specs)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := New(tg.g, pl, Options{Kernel: k, Lanes: set}).Run(nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, p.Name(), err)
				}
				if len(batched.Lanes) != len(specs) {
					t.Fatalf("%s/%s: %d lane results for %d specs", tg.name, p.Name(), len(batched.Lanes), len(specs))
				}
				for lane, sp := range specs {
					solo, err := New(tg.g, pl, Options{
						Kernel: k,
						Filter: laneRefFilter(tg.g, pl, sp),
					}).Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					got := batched.Lanes[lane]
					want := LaneCounts{
						Matches: solo.Matches, Nodes: solo.Nodes, Comps: solo.Comps, Stats: solo.Stats,
					}
					if got != want {
						t.Errorf("%s/%s kernel=%d lane=%d: batched %+v, sequential %+v",
							tg.name, p.Name(), k, lane, got, want)
					}
				}
			}
		}
	}
}

// TestLaneSharedWorkIsShared pins the point of batching: the shared
// traversal's actually-performed intersections must be far fewer than
// the sum of the per-lane attributed intersections when lanes overlap
// (here: four lanes whose trees nest inside the unrestricted lane's).
func TestLaneSharedWorkIsShared(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 11)
	pl := compile(t, pattern.P2())
	specs := []lanes.Spec{{}, {MinDegree: 2}, {MinDegree: 4}, {MinDegree: 8}}
	set, err := lanes.NewSet(g.NumVertices(), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(g, pl, Options{Lanes: set}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var attributed uint64
	for _, lc := range res.Lanes {
		attributed += lc.Stats.Intersections
	}
	// The shared count is what the engine really did; with four nested
	// lanes every intersection below the loosest threshold is charged
	// to several lanes at once.
	if res.Stats.Intersections >= attributed {
		t.Fatalf("no sharing: %d shared intersections vs %d attributed",
			res.Stats.Intersections, attributed)
	}
}
