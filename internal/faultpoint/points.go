// Package faultpoint is a named fault-injection-point registry for
// chaos testing the enumeration runtime. Production code calls
// Hit(name) at the places where faults matter (worker start,
// checkpoint write, CSR read, admission, batches); chaos tests
// built with the "faultinject" tag register hooks at those names that
// panic, sleep, or fail. In the default build every function in this
// package compiles to a no-op, so the injection sites cost nothing.
package faultpoint

// Canonical injection-point names. Production call sites and chaos
// tests refer to these constants so they cannot drift apart.
const (
	// PointWorkerStart fires once for each pool worker a run's
	// submission starts, in the submitting goroutine, before the worker
	// exists; an error or panic there fails that run.
	PointWorkerStart = "parallel.worker.start"
	// PointCheckpointWrite fires at the start of every checkpoint file
	// write (periodic and final).
	PointCheckpointWrite = "supervise.checkpoint.write"
	// PointCSRRead fires at the start of binary CSR deserialization.
	PointCSRRead = "graph.csr.read"
	// PointSlotGrant fires at the top of Governor.Admit, before any
	// slot bookkeeping.
	PointSlotGrant = "admission.slot.grant"
	// PointWatchdogFire fires when the stall watchdog is about to
	// record a stall diagnostic; an injected error suppresses it.
	PointWatchdogFire = "admission.watchdog.fire"
	// PointBatchAdmit fires as a CountBatch run begins, after its
	// single admission grant and before the first group executes.
	PointBatchAdmit = "light.batch.admit"
)
