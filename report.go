package light

import (
	"time"

	"light/internal/engine"
)

// RunReportSchema is the version tag carried by every RunReport; bump it
// when the report layout changes incompatibly.
const RunReportSchema = "light-report/1"

// RunReport is the structured metrics report of one Count/Enumerate
// run, built from the counters the run returned. The engine counters
// (matches, nodes, comps, intersections, galloping, merges, elements)
// are deterministic for a given (graph, pattern, options) configuration
// — independent of worker count and scheduling — while the parallel and
// checkpoint counters describe this specific run. `lightenum -stats`
// prints it as JSON.
type RunReport struct {
	// Schema is the report format version (RunReportSchema).
	Schema string `json:"schema"`
	// Algorithm is the enumeration algorithm name (LIGHT, SE, LM, MSC).
	Algorithm string `json:"algorithm"`
	// Kernel is the set-intersection kernel name.
	Kernel string `json:"kernel"`
	// Workers is the number of workers the run used.
	Workers int `json:"workers"`
	// WallNS is the wall-clock enumeration time in nanoseconds.
	WallNS int64 `json:"wall_ns"`

	// Matches is the number of subgraphs found.
	Matches uint64 `json:"matches"`
	// Nodes is the number of search-tree nodes expanded.
	Nodes uint64 `json:"nodes"`
	// Comps is the number of COMP (candidate-set) operations executed.
	Comps uint64 `json:"comps"`
	// Intersections is the number of pairwise set intersections.
	Intersections uint64 `json:"intersections"`
	// Galloping is how many intersections took the galloping path.
	Galloping uint64 `json:"galloping"`
	// Merges is how many intersections took a merge path.
	Merges uint64 `json:"merges"`
	// Elements is the total input elements scanned across intersections.
	Elements uint64 `json:"elements"`
	// BitmapProbes is the number of elements probed against hub bitmaps
	// (nonzero only for the bitmap kernels on graphs with indexed hubs).
	BitmapProbes uint64 `json:"bitmap_probes,omitempty"`
	// GallopingPercent is 100·Galloping/Intersections (Table III).
	GallopingPercent float64 `json:"galloping_percent"`

	// RootChunks counts root chunks dispensed by the scheduler.
	RootChunks uint64 `json:"root_chunks,omitempty"`
	// QueueWaits counts parks of workers that ran out of the run's units.
	QueueWaits uint64 `json:"queue_waits,omitempty"`
	// QueueWaitNS is the total time workers spent blocked, in ns.
	QueueWaitNS uint64 `json:"queue_wait_ns,omitempty"`
	// BusyNS is the total time workers spent executing work, in ns.
	BusyNS uint64 `json:"busy_ns,omitempty"`
	// PerWorkerNodes is the nodes each worker expanded (load balance).
	PerWorkerNodes []uint64 `json:"per_worker_nodes,omitempty"`
	// PerWorkerBusyNS is the busy time of each worker, in ns.
	PerWorkerBusyNS []int64 `json:"per_worker_busy_ns,omitempty"`

	// CheckpointWrites counts checkpoint file writes (periodic + final).
	CheckpointWrites uint64 `json:"checkpoint_writes,omitempty"`
	// CheckpointWriteNS is the cumulative checkpoint write latency in ns.
	CheckpointWriteNS uint64 `json:"checkpoint_write_ns,omitempty"`
	// CheckpointWriteErrors counts failed checkpoint writes.
	CheckpointWriteErrors uint64 `json:"checkpoint_write_errors,omitempty"`
	// CheckpointRetries counts failed checkpoint writes that were
	// retried with jittered backoff (a retried-then-successful write
	// increments Retries and Errors but surfaces no error).
	CheckpointRetries uint64 `json:"checkpoint_retries,omitempty"`

	// AdmissionWaitNS is how long the run waited for its run place
	// under a shared Governor, in ns.
	AdmissionWaitNS uint64 `json:"admission_wait_ns,omitempty"`
	// SlotsGranted is the run's worker cap granted at admission under a
	// Governor: min(Workers, Slots).
	SlotsGranted uint64 `json:"slots_granted,omitempty"`
	// SlotsShed is always 0: runs share the Governor's pool and never
	// hand workers back. It stays for readers of the report.
	SlotsShed uint64 `json:"slots_shed,omitempty"`
	// WatchdogStalls counts stall-watchdog firings during the run;
	// StallDump is the first stall's diagnostic (per-worker progress
	// table plus an all-goroutine stack capture).
	WatchdogStalls uint64 `json:"watchdog_stalls,omitempty"`
	StallDump      string `json:"stall_dump,omitempty"`
	// DegradationEvents lists, in order, what resource pressure did to
	// the run: a Governor admission that granted fewer workers than
	// requested, and watchdog stalls — empty for an unpressured run. A
	// memory budget adds none: it either holds or stops the run with
	// ErrMemoryBudget.
	DegradationEvents []string `json:"degradation_events,omitempty"`

	// DeltaEdges is how many pending edge insertions plus deletions the
	// run's snapshot carried over its base CSR (0 for a compacted or
	// never-mutated graph).
	DeltaEdges int `json:"delta_edges,omitempty"`
	// SnapshotGen is the generation of the snapshot the run enumerated
	// (0 for a never-mutated graph).
	SnapshotGen uint64 `json:"snapshot_gen,omitempty"`

	// CandidateMemoryBytes is the candidate-buffer memory across
	// workers: the slab footprint of their arenas.
	CandidateMemoryBytes int64 `json:"candidate_memory_bytes"`
}

// newRunReport assembles the public report of the run r over the
// snapshot st, which took d. Its engine counters are r's own, or, for
// one query of a CountBatch, that query's share of them; a batch
// query's report carries no scheduler, checkpoint or admission figure,
// since those belong to the whole batch.
func newRunReport(opts Options, st *snapshotState, d time.Duration, r *ran, query *engine.LaneCounts) *RunReport {
	lc := engine.LaneCounts{Matches: r.Matches, Nodes: r.Nodes, Comps: r.Comps, Stats: r.Stats}
	if query != nil {
		lc = *query
	}
	rep := &RunReport{
		Schema:           RunReportSchema,
		Algorithm:        opts.Algorithm.String(),
		Kernel:           opts.Intersection.String(),
		Workers:          r.Workers,
		WallNS:           int64(d),
		Matches:          lc.Matches,
		Nodes:            lc.Nodes,
		Comps:            lc.Comps,
		Intersections:    lc.Stats.Intersections,
		Galloping:        lc.Stats.Galloping,
		Merges:           lc.Stats.Intersections - lc.Stats.Galloping,
		Elements:         lc.Stats.Elements,
		BitmapProbes:     lc.Stats.BitmapProbes,
		GallopingPercent: lc.Stats.GallopingPercent(),

		DeltaEdges:  st.view.DeltaEdges(),
		SnapshotGen: st.gen,

		CandidateMemoryBytes: r.CandidateMemBytes,
	}
	if query != nil {
		return rep
	}
	rep.RootChunks = r.RootChunksDispensed
	rep.QueueWaits = r.QueueWaits
	rep.QueueWaitNS = uint64(r.QueueWaitTotal)
	rep.PerWorkerNodes = r.PerWorkerNodes
	rep.PerWorkerBusyNS = make([]int64, len(r.PerWorkerBusy))
	for i, b := range r.PerWorkerBusy {
		rep.PerWorkerBusyNS[i] = int64(b)
		rep.BusyNS += uint64(b)
	}
	rep.CheckpointWrites = r.CheckpointWrites
	rep.CheckpointWriteNS = uint64(r.CheckpointWriteTotal)
	rep.CheckpointWriteErrors = r.CheckpointWriteErrors
	rep.CheckpointRetries = r.CheckpointRetries
	rep.AdmissionWaitNS = uint64(r.admissionWait)
	rep.SlotsGranted = uint64(r.slotsGranted)
	rep.WatchdogStalls = r.Stalls
	rep.StallDump = r.StallDump
	rep.DegradationEvents = r.degradations
	return rep
}
