package supervise

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"light/internal/graph"
)

func TestCallPassesThroughResults(t *testing.T) {
	if err := Call("ok", func() error { return nil }); err != nil {
		t.Fatalf("nil-returning fn: %v", err)
	}
	sentinel := errors.New("boom")
	if err := Call("err", func() error { return sentinel }); err != sentinel {
		t.Fatalf("error identity lost: %v", err)
	}
}

func TestCallConvertsPanic(t *testing.T) {
	err := Call("the region", func() error { panic("blew up") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Where != "the region" || pe.Value != "blew up" {
		t.Fatalf("got %q / %v", pe.Where, pe.Value)
	}
	msg := pe.Error()
	if !strings.Contains(msg, "the region") || !strings.Contains(msg, "blew up") {
		t.Fatalf("Error() lost context: %q", msg)
	}
	if !strings.Contains(msg, "supervise_test.go") {
		t.Fatalf("Error() lost the stack: %q", msg)
	}
}

func TestGoRecoversAndReleasesWaitGroup(t *testing.T) {
	var wg sync.WaitGroup
	var got atomic.Value
	Go(&wg, "crasher", func(err error) { got.Store(err) }, func() { panic(42) })
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wg.Wait hung after a worker panic")
	}
	err, _ := got.Load().(error)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("onErr got %v", err)
	}
}

func TestGoCleanRunSkipsOnErr(t *testing.T) {
	var wg sync.WaitGroup
	var calls atomic.Int32
	var ran atomic.Bool
	Go(&wg, "fine", func(error) { calls.Add(1) }, func() { ran.Store(true) })
	wg.Wait()
	if !ran.Load() || calls.Load() != 0 {
		t.Fatalf("ran=%v onErr calls=%d", ran.Load(), calls.Load())
	}
}

func TestSafeVisitNil(t *testing.T) {
	wrapped, errf := SafeVisit("x", nil)
	if wrapped != nil {
		t.Fatal("nil visit must stay nil (engine count-only path)")
	}
	if err := errf(); err != nil {
		t.Fatalf("err func on nil visit: %v", err)
	}
}

func TestSafeVisitPanicStopsAndReports(t *testing.T) {
	calls := 0
	wrapped, errf := SafeVisit("visit", func(m []graph.VertexID) bool {
		calls++
		if calls == 2 {
			panic("second match")
		}
		return true
	})
	if !wrapped(nil) {
		t.Fatal("first call should pass through true")
	}
	if wrapped(nil) {
		t.Fatal("panicking call must return false to stop the engine")
	}
	var pe *PanicError
	if err := errf(); !errors.As(err, &pe) || pe.Value != "second match" {
		t.Fatalf("err func returned %v", err)
	}
}

func TestSafeVisitKeepsFirstPanic(t *testing.T) {
	n := 0
	wrapped, errf := SafeVisit("visit", func(m []graph.VertexID) bool {
		n++
		panic(n)
	})
	wrapped(nil)
	wrapped(nil)
	var pe *PanicError
	if err := errf(); !errors.As(err, &pe) || pe.Value != 1 {
		t.Fatalf("want first panic retained, got %v", err)
	}
}

func TestSafeVisitPassesThroughFalse(t *testing.T) {
	wrapped, errf := SafeVisit("visit", func(m []graph.VertexID) bool { return false })
	if wrapped(nil) {
		t.Fatal("visitor's false must pass through")
	}
	if err := errf(); err != nil {
		t.Fatalf("no panic, but err = %v", err)
	}
}
