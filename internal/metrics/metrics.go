// Package metrics is the run-report metrics layer: a low-overhead
// counter registry threaded through the enumeration engine
// (internal/engine), the intersection kernels (internal/intersect via
// engine result folding), and the work-stealing scheduler
// (internal/parallel).
//
// The design keeps the enumeration hot path allocation-free (enforced
// by the lightvet hotpath analyzer): workers accumulate plain per-run
// counters in their own engine.Result and fold them into a shared
// Recorder at unit boundaries (end of a root chunk, a resumed frame, or
// a whole run), while scheduler-level events (queue waits, checkpoint
// writes) hit the Recorder directly. Every Recorder counter is an
// atomic uint64 padded to its own cache line, so concurrent folds from
// many workers never false-share, and a nil *Recorder is valid and
// inert — disabled-mode instrumentation costs a nil check and nothing
// else.
package metrics

import (
	"sync/atomic"
	"time"
)

// ID names one counter in the registry. The set is closed and small so
// a Recorder can be a fixed array — no map lookups, no allocation.
type ID uint32

// The counter registry. Engine and intersect counters are exact and
// deterministic for a given (graph, plan, kernel) configuration —
// independent of worker count, donation timing, and scheduling — which
// is what makes them gateable in CI. Parallel counters describe one
// specific run.
const (
	// EngineNodes counts search-tree nodes expanded (MAT extensions).
	EngineNodes ID = iota
	// EngineMatches counts emitted matches.
	EngineMatches
	// EngineComps counts COMP operations executed (candidate-set
	// computations, including single-operand aliases).
	EngineComps
	// IntersectOps counts pairwise set intersections (the paper's Fig 5
	// metric).
	IntersectOps
	// IntersectGalloping counts intersections that took the galloping
	// path (Table III numerator).
	IntersectGalloping
	// IntersectMerge counts intersections that took a merge path.
	IntersectMerge
	// IntersectElements counts input elements scanned across all
	// pairwise intersections (len(a)+len(b) per operation) — the
	// element-throughput base.
	IntersectElements
	// IntersectBitmapProbes counts elements probed against hub bitmaps
	// by the bitmap kernels (each probe replaces a gallop step).
	IntersectBitmapProbes
	// ParallelDonations counts frames pushed to the global queue.
	ParallelDonations
	// ParallelSteals counts frames executed by a worker other than the
	// donor.
	ParallelSteals
	// ParallelRootChunks counts root chunks dispensed.
	ParallelRootChunks
	// ParallelQueueWaits counts worker blocking episodes on the frame
	// queue.
	ParallelQueueWaits
	// ParallelQueueWaitNanos accumulates time workers spent blocked on
	// the frame queue.
	ParallelQueueWaitNanos
	// ParallelBusyNanos accumulates time workers spent executing chunks
	// and frames (the per-thread utilization numerator).
	ParallelBusyNanos
	// CheckpointWrites counts checkpoint file writes (periodic + final).
	CheckpointWrites
	// CheckpointWriteNanos accumulates checkpoint write latency.
	CheckpointWriteNanos
	// CheckpointWriteErrors counts failed checkpoint writes.
	CheckpointWriteErrors
	// AdmissionWaitNanos is how long the run waited for its run place
	// under a shared Governor.
	AdmissionWaitNanos
	// AdmissionSlotsGranted is the run's worker cap granted at admission.
	AdmissionSlotsGranted
	// GovernorDegradations counts degradation events of any kind
	// (arena tight mode, worker shedding, reduced admission).
	GovernorDegradations
	// CheckpointRetries counts checkpoint writes that succeeded only
	// after retry-with-backoff.
	CheckpointRetries
	// WatchdogStalls counts stall-watchdog firings.
	WatchdogStalls
	// NumIDs is the registry size; not a counter.
	NumIDs
)

// String returns the counter's stable snapshot key.
func (id ID) String() string {
	if int(id) < len(idNames) {
		return idNames[id]
	}
	return "unknown"
}

var idNames = [NumIDs]string{
	EngineNodes:            "engine.nodes",
	EngineMatches:          "engine.matches",
	EngineComps:            "engine.comps",
	IntersectOps:           "intersect.ops",
	IntersectGalloping:     "intersect.galloping",
	IntersectMerge:         "intersect.merge",
	IntersectElements:      "intersect.elements",
	IntersectBitmapProbes:  "intersect.bitmap_probes",
	ParallelDonations:      "parallel.donations",
	ParallelSteals:         "parallel.steals",
	ParallelRootChunks:     "parallel.root_chunks",
	ParallelQueueWaits:     "parallel.queue_waits",
	ParallelQueueWaitNanos: "parallel.queue_wait_ns",
	ParallelBusyNanos:      "parallel.busy_ns",
	CheckpointWrites:       "checkpoint.writes",
	CheckpointWriteNanos:   "checkpoint.write_ns",
	CheckpointWriteErrors:  "checkpoint.write_errors",
	AdmissionWaitNanos:     "admission.wait_ns",
	AdmissionSlotsGranted:  "admission.slots_granted",
	GovernorDegradations:   "governor.degradations",
	CheckpointRetries:      "checkpoint.retries",
	WatchdogStalls:         "watchdog.stalls",
}

// cacheLine is the assumed cache-line size; each counter occupies one
// full line so two workers folding different counters never contend.
const cacheLine = 64

// counter is one padded atomic cell. The padding matters: without it,
// eight counters share a line and every cross-worker fold ping-pongs it.
type counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Recorder is a fixed-size registry of padded atomic counters. The zero
// value is ready to use; a nil *Recorder is valid and records nothing,
// so call sites need no branching beyond the receiver nil check the
// methods already do.
type Recorder struct {
	c [NumIDs]counter
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add atomically adds n to the counter. No-op on a nil receiver;
// allocation-free always (hot-path safe).
//
//light:hotpath
func (r *Recorder) Add(id ID, n uint64) {
	if r == nil {
		return
	}
	r.c[id].v.Add(n)
}

// Inc atomically increments the counter. No-op on a nil receiver.
//
//light:hotpath
func (r *Recorder) Inc(id ID) { r.Add(id, 1) }

// AddDuration adds a non-negative duration to a nanosecond counter.
// No-op on a nil receiver.
func (r *Recorder) AddDuration(id ID, d time.Duration) {
	if d > 0 {
		r.Add(id, uint64(d))
	}
}

// Get atomically reads one counter; 0 on a nil receiver.
func (r *Recorder) Get(id ID) uint64 {
	if r == nil {
		return 0
	}
	return r.c[id].v.Load()
}

// GetDuration reads a nanosecond counter as a time.Duration.
func (r *Recorder) GetDuration(id ID) time.Duration {
	return time.Duration(r.Get(id))
}

// Reset zeroes every counter. No-op on a nil receiver.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.c {
		r.c[i].v.Store(0)
	}
}

// Snapshot returns every counter keyed by its stable name. Allocates;
// call it from cold code only.
func (r *Recorder) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, NumIDs)
	for id := ID(0); id < NumIDs; id++ {
		out[id.String()] = r.Get(id)
	}
	return out
}
