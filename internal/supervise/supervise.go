// Package supervise is the supervision layer of the enumeration
// runtime: it isolates panics (from user visit callbacks and from
// worker internals) into ordinary errors and persists resumable
// checkpoints of parallel runs. The parallel scheduler and the public light API build on it;
// nothing here is specific to one scheduler.
package supervise

import (
	"fmt"
	"runtime/debug"
	"sync"

	"light/internal/engine"
	"light/internal/graph"
)

// PanicError is a panic converted into an error: the recovered value,
// the goroutine stack at the point of recovery, and a label for the
// supervised region that panicked.
type PanicError struct {
	Where string // supervised region, e.g. "parallel worker 3"
	Value any    // the value passed to panic
	Stack []byte // debug.Stack() captured inside the deferred recover
}

// Error renders the panic with its stack so the crash site is never
// lost even though the process survived.
func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: panic in %s: %v\n%s", e.Where, e.Value, e.Stack)
}

// Call runs fn, converting a panic inside it into a *PanicError. A
// nil-returning, non-panicking fn yields nil.
func Call(where string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Where: where, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Go launches fn on a supervised goroutine registered with wg. A panic
// in fn is recovered, converted to a *PanicError and handed to onErr;
// wg.Done always runs, so wg.Wait never deadlocks on a crashed worker.
func Go(wg *sync.WaitGroup, where string, onErr func(error), fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := Call(where, func() error { fn(); return nil }); err != nil {
			onErr(err)
		}
	}()
}

// SafeVisit wraps a user visit callback so a panic inside it stops the
// enumeration cleanly instead of unwinding through the engine: the
// wrapped visitor returns false (the engine's early-stop path) and the
// recovered *PanicError is available from the returned err function
// after the run. A nil visit returns a nil wrapper. SafeVisit does not
// serialize or latch: a caller whose workers share the visitor must stop
// calling it after a false (parallel.RunContext latches under its
// visitor mutex; a single-threaded engine stops on the first false).
func SafeVisit(where string, visit engine.VisitFunc) (wrapped engine.VisitFunc, err func() error) {
	if visit == nil {
		return nil, func() error { return nil }
	}
	var mu sync.Mutex
	var perr error
	wrapped = func(m []graph.VertexID) bool {
		ok := true
		if cerr := Call(where, func() error { ok = visit(m); return nil }); cerr != nil {
			mu.Lock()
			if perr == nil {
				perr = cerr
			}
			mu.Unlock()
			return false
		}
		return ok
	}
	return wrapped, func() error {
		mu.Lock()
		defer mu.Unlock()
		return perr
	}
}
