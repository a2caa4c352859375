package metrics

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestRecorderAddGet(t *testing.T) {
	r := NewRecorder()
	r.Add(EngineNodes, 41)
	r.Inc(EngineNodes)
	r.Inc(IntersectOps)
	r.AddDuration(ParallelBusyNanos, 3*time.Millisecond)
	r.AddDuration(ParallelBusyNanos, -time.Second) // negative: ignored
	if got := r.Get(EngineNodes); got != 42 {
		t.Fatalf("EngineNodes = %d, want 42", got)
	}
	if got := r.Get(IntersectOps); got != 1 {
		t.Fatalf("IntersectOps = %d, want 1", got)
	}
	if got := r.GetDuration(ParallelBusyNanos); got != 3*time.Millisecond {
		t.Fatalf("busy = %v, want 3ms", got)
	}
	if got := r.Get(EngineMatches); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
	r.Reset()
	if got := r.Get(EngineNodes); got != 0 {
		t.Fatalf("after Reset: %d, want 0", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Add(EngineNodes, 7)
	r.Inc(EngineMatches)
	r.AddDuration(ParallelBusyNanos, time.Second)
	r.Reset()
	if got := r.Get(EngineNodes); got != 0 {
		t.Fatalf("nil recorder Get = %d, want 0", got)
	}
	snap := r.Snapshot()
	for k, v := range snap {
		if v != 0 {
			t.Fatalf("nil recorder snapshot %s = %d, want 0", k, v)
		}
	}
}

// TestDisabledModeZeroAllocations is the disabled-overhead contract:
// recording into a nil Recorder — the disabled mode — must not allocate,
// and neither must recording into a live one.
func TestDisabledModeZeroAllocations(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Add(EngineNodes, 3)
		nilRec.Inc(IntersectOps)
		nilRec.AddDuration(ParallelBusyNanos, time.Millisecond)
	}); n != 0 {
		t.Fatalf("nil recorder: %v allocs/op, want 0", n)
	}
	live := NewRecorder()
	if n := testing.AllocsPerRun(1000, func() {
		live.Add(EngineNodes, 3)
		live.Inc(IntersectOps)
		live.AddDuration(ParallelBusyNanos, time.Millisecond)
	}); n != 0 {
		t.Fatalf("live recorder: %v allocs/op, want 0", n)
	}
}

// TestConcurrentAdds proves counts are exact under concurrency (and
// race-clean under -race).
func TestConcurrentAdds(t *testing.T) {
	r := NewRecorder()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc(EngineNodes)
				r.Add(IntersectElements, 2)
			}
		}()
	}
	wg.Wait()
	if got := r.Get(EngineNodes); got != workers*perWorker {
		t.Fatalf("EngineNodes = %d, want %d", got, workers*perWorker)
	}
	if got := r.Get(IntersectElements); got != 2*workers*perWorker {
		t.Fatalf("IntersectElements = %d, want %d", got, 2*workers*perWorker)
	}
}

// TestCounterPadding pins the false-sharing defence: every counter cell
// spans a full cache line.
func TestCounterPadding(t *testing.T) {
	if sz := unsafe.Sizeof(counter{}); sz != cacheLine {
		t.Fatalf("sizeof(counter) = %d, want %d", sz, cacheLine)
	}
}

func TestEveryIDHasAName(t *testing.T) {
	seen := map[string]ID{}
	for id := ID(0); id < NumIDs; id++ {
		name := id.String()
		if name == "" || name == "unknown" {
			t.Fatalf("counter %d has no name", id)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("counters %d and %d share the name %q", prev, id, name)
		}
		seen[name] = id
	}
	if ID(NumIDs+1).String() != "unknown" {
		t.Fatal("out-of-range ID should stringify as unknown")
	}
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRecorder()
	r.Add(ParallelRootChunks, 5)
	snap := r.Snapshot()
	if len(snap) != int(NumIDs) {
		t.Fatalf("snapshot has %d keys, want %d", len(snap), NumIDs)
	}
	if snap["parallel.root_chunks"] != 5 {
		t.Fatalf("snapshot[parallel.root_chunks] = %d, want 5", snap["parallel.root_chunks"])
	}
}
