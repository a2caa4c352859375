package parallel

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"light/internal/admission"
	"light/internal/faultpoint"
)

// stackDumpCap bounds the all-goroutine stack capture embedded in a
// stall diagnostic (64 KiB is enough for every pool goroutine's frames
// without letting a huge process image bloat the RunReport).
const stackDumpCap = 64 << 10

// watchdog samples every seat's progress heartbeat each wd.Interval
// and fires after wd.Patience consecutive intervals in which a busy
// seat (odd epoch) advanced neither its epoch nor its beat. A seat no
// worker is inside has an even epoch and is never flagged; a
// slow-but-advancing worker moves its beat (the engine bumps it every
// 8192 σ steps) and is never flagged either — only a wedged one (e.g.
// a visit callback that stopped returning) trips the patience counter.
// It returns when done is closed.
func (r *run) watchdog(wd *admission.WatchdogConfig, done <-chan struct{}) {
	n := len(r.seats)
	lastBeat := make([]uint64, n)
	lastEpoch := make([]uint64, n)
	still := make([]int, n)
	fired := make([]bool, n)
	patience := wd.Patience
	if patience <= 0 {
		patience = 5
	}
	ticker := time.NewTicker(wd.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			if r.stop.Load() {
				return
			}
			for w := 0; w < n; w++ {
				epoch := r.seats[w].epoch.Load()
				beat := r.seats[w].beat.Load()
				busy := epoch&1 == 1
				if busy && epoch == lastEpoch[w] && beat == lastBeat[w] {
					still[w]++
				} else {
					still[w] = 0
					fired[w] = false
				}
				lastEpoch[w] = epoch
				lastBeat[w] = beat
				if still[w] >= patience && !fired[w] {
					fired[w] = true
					r.fireStall(w, wd, still[w])
				}
			}
		}
	}
}

// fireStall records one stall: counter, first-wins diagnostic dump
// (per-worker progress table + all-goroutine stacks), and — when the
// watchdog is configured to cancel — a cancel of the run's context with
// cause admission.ErrStalled, which RunJobs returns.
func (r *run) fireStall(w int, wd *admission.WatchdogConfig, intervals int) {
	if err := faultpoint.Hit(faultpoint.PointWatchdogFire); err != nil {
		// An injected fault suppresses this firing (chaos coverage for
		// the diagnostic path itself).
		return
	}
	r.stalls.Add(1)
	var b strings.Builder
	fmt.Fprintf(&b, "stall watchdog: worker %d made no progress for %d intervals of %v\n",
		w, intervals, wd.Interval)
	b.WriteString("per-worker progress (beat = engine polls/8192, epoch odd = executing):\n")
	for i := range r.seats {
		fmt.Fprintf(&b, "  worker %d: beat=%d epoch=%d\n",
			i, r.seats[i].beat.Load(), r.seats[i].epoch.Load())
	}
	buf := make([]byte, stackDumpCap)
	b.WriteString("goroutine stacks:\n")
	b.Write(buf[:runtime.Stack(buf, true)])
	r.pool.mu.Lock()
	if r.stallDump == "" {
		r.stallDump = b.String()
	}
	r.pool.mu.Unlock()
	if wd.Cancel {
		r.cancel(admission.ErrStalled)
	}
}
