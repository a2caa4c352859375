package arena

import "sync/atomic"

// Limiter is a byte budget shared by one or more arenas. Reservations
// are accounted against this limiter and, transitively, against its
// parent — so a per-run limiter can nest under a process-wide one (the
// admission Governor's) and both ceilings hold at once. All methods
// are safe for concurrent use and valid on a nil receiver (a nil
// *Limiter is an unlimited budget that records nothing).
type Limiter struct {
	limit  int64 // 0 = no ceiling at this level (parent may still cap)
	parent *Limiter

	used atomic.Int64
}

// NewLimiter returns a limiter with the given byte ceiling chained
// under parent. A non-positive limit means "no ceiling at this level";
// if there is also no parent the budget is unlimited and NewLimiter
// returns nil, which every method accepts.
func NewLimiter(limit int64, parent *Limiter) *Limiter {
	if limit <= 0 {
		if parent == nil {
			return nil
		}
		limit = 0
	}
	return &Limiter{limit: limit, parent: parent}
}

// Reserve accounts n bytes against the limiter and its parents,
// failing without side effects when any ceiling in the chain would be
// exceeded. A nil receiver always succeeds.
func (l *Limiter) Reserve(n int64) bool {
	if l == nil || n <= 0 {
		return true
	}
	for {
		u := l.used.Load()
		if l.limit > 0 && u+n > l.limit {
			return false
		}
		if l.used.CompareAndSwap(u, u+n) {
			break
		}
	}
	if l.parent != nil && !l.parent.Reserve(n) {
		l.used.Add(-n)
		return false
	}
	return true
}

// Release returns n bytes to the limiter and its parents.
func (l *Limiter) Release(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.used.Add(-n)
	if l.parent != nil {
		l.parent.Release(n)
	}
}

// ReleaseAll returns every byte this limiter holds to its parents and
// zeroes its own accounting — the run-teardown path, where all arenas
// charged to the limiter die together.
func (l *Limiter) ReleaseAll() {
	if l == nil {
		return
	}
	u := l.used.Swap(0)
	if u > 0 && l.parent != nil {
		l.parent.Release(u)
	}
}

// Used returns the bytes currently reserved at this level.
func (l *Limiter) Used() int64 {
	if l == nil {
		return 0
	}
	return l.used.Load()
}
