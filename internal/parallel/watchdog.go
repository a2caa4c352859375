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

// watchdog samples every worker's progress heartbeat each wd.Interval
// and fires after wd.Patience consecutive intervals in which a busy
// worker (odd epoch) advanced neither its epoch nor its beat. A worker
// parked on the frame queue has an even epoch and is never flagged; a
// slow-but-advancing worker moves its beat (the engine bumps it every
// 8192 σ steps) and is never flagged either — only a wedged one (e.g.
// a visit callback that stopped returning) trips the patience counter.
func (p *pool) watchdog(wd *admission.WatchdogConfig, stop <-chan struct{}) {
	n := len(p.beats)
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
		case <-stop:
			return
		case <-ticker.C:
			if p.stop.Load() {
				return
			}
			for w := 0; w < n; w++ {
				epoch := p.epochs[w].Load()
				beat := p.beats[w].Load()
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
					p.fireStall(w, wd, still[w])
				}
			}
		}
	}
}

// fireStall records one stall: counter, first-wins diagnostic dump
// (per-worker progress table + all-goroutine stacks), and — when the
// watchdog is configured to cancel — cooperative termination of the
// pool, which RunJobs surfaces as admission.ErrStalled.
func (p *pool) fireStall(w int, wd *admission.WatchdogConfig, intervals int) {
	if err := faultpoint.Hit(faultpoint.PointWatchdogFire); err != nil {
		// An injected fault suppresses this firing (chaos coverage for
		// the diagnostic path itself).
		return
	}
	p.stalls.Add(1)
	var b strings.Builder
	fmt.Fprintf(&b, "stall watchdog: worker %d made no progress for %d intervals of %v\n",
		w, intervals, wd.Interval)
	b.WriteString("per-worker progress (beat = engine polls/8192, epoch odd = executing):\n")
	for i := range p.beats {
		fmt.Fprintf(&b, "  worker %d: beat=%d epoch=%d\n",
			i, p.beats[i].Load(), p.epochs[i].Load())
	}
	buf := make([]byte, stackDumpCap)
	b.WriteString("goroutine stacks:\n")
	b.Write(buf[:runtime.Stack(buf, true)])
	p.mu.Lock()
	if p.stallDump == "" {
		p.stallDump = b.String()
	}
	p.mu.Unlock()
	if wd.Cancel {
		p.stallCancelled.Store(true)
		p.stop.Store(true)
		p.wakeAll()
	}
}
