package graph

import (
	"sync"
	"testing"
)

// TestHubIndexConcurrentBuildAndProbe is the data-race regression test
// for the nil-then-swap rebuild: concurrent BuildHubIndex calls while
// readers probe HubBitmap must neither race (caught by -race) nor
// observe a partially built index (a hub whose bitmap momentarily
// disappears or loses neighbors). Pre-fix, BuildHubIndex nilled g.hub
// and then mutated the new index in place while HubBitmap read it.
func TestHubIndexConcurrentBuildAndProbe(t *testing.T) {
	g := starGraph(200, [][2]VertexID{{1, 2}, {2, 3}, {3, 4}})
	g.BuildHubIndex(5)
	center := VertexID(0) // starGraph keeps original ids: 0 is the center
	if g.HubBitmap(center) == nil {
		t.Fatal("fixture: center is not an indexed hub")
	}
	wantDeg := g.Degree(center)

	var readers, builders sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Either snapshot must be complete: the center's bitmap
				// is present at both τ values and carries every leaf.
				bmp := g.HubBitmap(center)
				if bmp == nil {
					t.Error("center bitmap vanished mid-rebuild")
					return
				}
				n := 0
				for _, w := range g.Neighbors(center) {
					if bmp.Contains(w) {
						n++
					}
				}
				if n != wantDeg {
					t.Errorf("partial bitmap: %d of %d neighbors present", n, wantDeg)
					return
				}
			}
		}()
	}
	for b := 0; b < 2; b++ {
		builders.Add(1)
		go func(b int) {
			defer builders.Done()
			for i := 0; i < 50; i++ {
				g.BuildHubIndex(5 + b) // alternating τ defeats the same-τ fast path
			}
		}(b)
	}
	builders.Wait()
	close(stop)
	readers.Wait()
}

// TestBuildHubIndexSameTauIdempotent pins the fast path: repeating
// BuildHubIndex with the τ the current index was built with must not
// rebuild.
func TestBuildHubIndexSameTauIdempotent(t *testing.T) {
	g := starGraph(100, nil)
	base := g.HubBuilds() // construction's auto-build
	if base == 0 {
		t.Fatal("construction did not build the index")
	}
	g.BuildHubIndex(7)
	if got := g.HubBuilds(); got != base+1 {
		t.Fatalf("explicit build: HubBuilds = %d, want %d", got, base+1)
	}
	for i := 0; i < 5; i++ {
		g.BuildHubIndex(7)
	}
	if got := g.HubBuilds(); got != base+1 {
		t.Fatalf("repeated same-τ builds: HubBuilds = %d, want %d", got, base+1)
	}
	g.BuildHubIndex(9)
	if got := g.HubBuilds(); got != base+2 {
		t.Fatalf("changed τ: HubBuilds = %d, want %d", got, base+2)
	}
}
