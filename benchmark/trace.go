package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch. Parent is the index of the span
// that caused this one in the same tracer (-1 for an operation's root);
// spans of one operation share Req. The three counts are copied from
// the RunReport of the run the span stands for, so ratios are taken
// where the work happened.
type span struct {
	Name   string
	Layer  string
	Parent int
	Req    uint64
	Start  int64
	End    int64

	BusyNS      int64
	QueueWaitNS int64
	AdmitWaitNS int64
}

// tracer keeps the spans of one client or caller in memory. It is not
// safe for concurrent use: every load-generating goroutine owns one, and
// they are merged after the run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index for children.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// addReported records a child span whose duration the program reported
// (a RunReport field) but whose position the harness cannot see from
// outside. It is laid against the end of its parent, clipped to the
// parent's interval: planning and admission come first in a run, the
// enumeration last.
func (t *tracer) addReported(name, layer string, parent int, durNS int64) int {
	p := t.spans[parent]
	if durNS < 0 {
		durNS = 0
	}
	if max := p.End - p.Start; durNS > max {
		durNS = max
	}
	return t.add(span{Name: name, Layer: layer, Parent: parent, Req: p.Req, Start: p.End - durNS, End: p.End})
}

// serverSpans collects handler spans from the server's goroutines, which
// cannot write into a client's tracer; the client adopts them by request
// id after the run.
type serverSpans struct {
	mu   sync.Mutex
	seen []serverSpan
}

type serverSpan struct {
	req        uint64
	start, end int64
}

func (s *serverSpans) record(req uint64, start, end int64) {
	s.mu.Lock()
	s.seen = append(s.seen, serverSpan{req, start, end})
	s.mu.Unlock()
}

// byReq indexes the spans recorded so far. A handler wrapper may still
// be recording after its client has read the reply, hence the lock; the
// span it adds too late is left out, and its request keeps an http span
// without a server child.
func (s *serverSpans) byReq() map[uint64]serverSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]serverSpan, len(s.seen))
	for _, sp := range s.seen {
		out[sp.req] = sp
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (children are clipped to
// the parent and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs within [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, end := int64(0), lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// layerShares sums self time per layer over spans and returns each
// layer's share of the operations' total time, plus that total. The
// root spans (Parent < 0) define the end-to-end time.
func layerShares(spans []span) (shares map[string]float64, totalNS int64) {
	self := selfTimes(spans)
	perLayer := make(map[string]int64)
	for i, s := range spans {
		perLayer[s.Layer] += self[i]
		if s.Parent < 0 {
			totalNS += s.End - s.Start
		}
	}
	shares = make(map[string]float64, len(perLayer))
	for l, ns := range perLayer {
		shares[l] = ratio(float64(ns), float64(totalNS))
	}
	return shares, totalNS
}

// traceMetrics fills the trace.* metrics from the merged spans.
// Coverage is the share of end-to-end time attributed to a program
// layer, that is, everything except the harness's own self time.
func traceMetrics(m metricSet, spans []span) {
	shares, _ := layerShares(spans)
	for _, l := range traceLayers {
		m.set("trace.share."+l, shares[l], len(spans))
	}
	m.set("trace.coverage_pct", 100*(1-shares["harness"]), len(spans))
	m.set("trace.spans", float64(len(spans)), 1)
}

// writeSpans writes the spans as one JSON document. Parent indexes
// refer to positions in the "spans" array.
func writeSpans(path, workload string, seed int64, spans []span) error {
	var w bytes.Buffer
	fmt.Fprintf(&w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"spans\":[", workload, seed)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(&w, "\n{\"name\":%q,\"layer\":%q,\"parent\":%d,\"req\":%d,\"start\":%d,\"end\":%d",
			s.Name, s.Layer, s.Parent, s.Req, s.Start, s.End)
		if s.BusyNS != 0 || s.QueueWaitNS != 0 || s.AdmitWaitNS != 0 {
			fmt.Fprintf(&w, ",\"busy_ns\":%d,\"queue_wait_ns\":%d,\"admission_wait_ns\":%d",
				s.BusyNS, s.QueueWaitNS, s.AdmitWaitNS)
		}
		w.WriteByte('}')
	}
	w.WriteString("\n]}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, w.Bytes(), 0o644)
}

// mergeTracers concatenates the tracers' spans, rebasing parent indexes.
func mergeTracers(ts []*tracer) []span {
	var out []span
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}
