package parallel

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// TestNegativeDeltaRejectedAtEntry pins the parallel-entry validation of
// Options.Engine.Delta: a negative δ must be rejected as an error before
// workers spawn (engine.New panics on it, and a supervised worker panic
// is a worse failure report).
func TestNegativeDeltaRejectedAtEntry(t *testing.T) {
	g := gen.Complete(6)
	p := pattern.Triangle()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, pl, Options{Engine: engine.Options{Delta: -5}, Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "Delta") {
		t.Fatalf("Run with Delta=-5: err = %v, want Delta validation error", err)
	}
}

// TestResumeRejectsMaskCorruptedFrame writes a real checkpoint with an
// outstanding donated frame, corrupts the frame's MatMask so it
// disagrees with the σ prefix (CRC re-sealed, so only frame validation
// can catch it), and asserts the resume path refuses it.
func TestResumeRejectsMaskCorruptedFrame(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 11)
	p := pattern.P4()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.ckpt")
	opts := Options{
		Workers:    4,
		ChunkSize:  4,
		MinSplit:   2,
		Checkpoint: &CheckpointOptions{Path: path, Interval: time.Hour},
	}
	// Interrupt mid-run so the final snapshot carries outstanding state.
	n := 0
	_, err = Run(g, pl, opts, func(m []graph.VertexID) bool {
		n++
		return n < 50
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := supervise.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Frames) == 0 {
		// Donation timing can leave no outstanding frames; synthesize one
		// the way Snapshot would, so the corruption still goes through the
		// full load/validate path.
		sigmaIdx := -1
		for i := 1; i < len(pl.Sigma); i++ {
			if pl.Sigma[i].Mode == plan.Mat {
				sigmaIdx = i
				break
			}
		}
		ck.Frames = append(ck.Frames, &engine.Frame{
			SigmaIdx:  sigmaIdx,
			Assigned:  make([]graph.VertexID, p.NumVertices()),
			MatMask:   pl.MatMaskBefore(sigmaIdx),
			Cands:     make([][]graph.VertexID, p.NumVertices()),
			Remaining: []graph.VertexID{0, 1, 2},
		})
	}
	// Sanity: the untampered checkpoint resumes cleanly.
	clean := opts
	clean.Resume = ck
	if _, err := Run(g, pl, clean, nil); err != nil {
		t.Fatalf("untampered resume failed: %v", err)
	}

	ck.Frames[0].MatMask ^= 1 << uint(pl.Pi[0]) // flip the root bit
	corrupt := opts
	corrupt.Resume = ck
	_, err = Run(g, pl, corrupt, nil)
	if err == nil || !strings.Contains(err.Error(), "inconsistent with σ") {
		t.Fatalf("resume with mask-corrupted frame: err = %v, want frame validation error", err)
	}
}
