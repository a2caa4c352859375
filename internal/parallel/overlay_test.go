package parallel

import (
	"path/filepath"
	"strings"
	"testing"

	"light/internal/delta"
	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

func overlayFixture(t *testing.T) (*graph.Graph, *delta.Overlay, *plan.Plan) {
	t.Helper()
	g := gen.BarabasiAlbert(80, 3, 5)
	ov, err := delta.Apply(g, nil, []delta.Edge{{U: 0, V: 1}, {U: 2, V: 85}}, []delta.Edge{{U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ov == nil {
		t.Fatal("fixture batch was a no-op")
	}
	p, err := pattern.New("triangle", 3, [][2]pattern.Vertex{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	return g, ov, pl
}

// TestParallelOverlayMatchesSequential checks that the work-stealing
// pool over an overlay view (including roots at overlay-grown vertices)
// equals the sequential engine on the same view.
func TestParallelOverlayMatchesSequential(t *testing.T) {
	g, ov, pl := overlayFixture(t)
	want, err := engine.New(g, pl, engine.Options{Overlay: ov}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, pl, Options{
		Engine:    engine.Options{Overlay: ov},
		Workers:   4,
		ChunkSize: 7,
		MinSplit:  2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches {
		t.Errorf("parallel overlay %d matches, sequential %d", got.Matches, want.Matches)
	}
}

// TestParallelOverlayRejectsCheckpointAndResume pins the guard: a view
// with pending deltas can neither checkpoint nor resume — the
// fingerprint binds only the base graph, so the file would validate
// against the wrong adjacency.
func TestParallelOverlayRejectsCheckpointAndResume(t *testing.T) {
	g, ov, pl := overlayFixture(t)
	_, err := Run(g, pl, Options{
		Engine:     engine.Options{Overlay: ov},
		Workers:    2,
		Checkpoint: &CheckpointOptions{Path: filepath.Join(t.TempDir(), "ck")},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("checkpoint with overlay: err = %v, want compact-first rejection", err)
	}
	_, err = Run(g, pl, Options{
		Engine: engine.Options{Overlay: ov},
		Resume: &supervise.Checkpoint{},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("resume with overlay: err = %v, want compact-first rejection", err)
	}
}
