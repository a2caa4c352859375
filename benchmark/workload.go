package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"light"
)

// workloadSpec names one workload: its data graph, why it exists, and
// how to set one instance of it up.
type workloadSpec struct {
	why     string
	dataset string // internal/gen suite name
	scale   int
	// tailQ is the quantile op_tail_ms reports: the highest of p75, p90
	// and p95 that a run of the committed length leaves about ten
	// samples beyond, except on oneshot-heavy, whose fifteen or so
	// pairs a run support no more than the upper quartile.
	tailQ  float64
	setup  func(in graphInput, seed int64) (instance, error)
	oracle func(in graphInput, seed int64) (map[string]uint64, error)
}

var workloadNames = []string{"oneshot-heavy", "serve-hot", "serve-mix", "delta-stream"}

var workloads = map[string]workloadSpec{
	"oneshot-heavy": {
		why:     "light.Count over P1-P4,P6,P7 on lj-s, serial then W workers: engine, intersect and parallel do the work; plan, server, delta and admission do none",
		dataset: "lj-s", scale: 1, tailQ: 0.75,
		setup: setupOneshot, oracle: staticOracle(queryList),
	},
	"serve-hot": {
		why:     "lightd over loopback, 63 warmed cache keys drawn Zipf(1.1): every request is a cache hit, so decode, plan search, cache, encode and net/http are the whole cost",
		dataset: "yt-s", scale: 1, tailQ: 0.95,
		setup: setupServeHot, oracle: staticOracle(light.CatalogNames()),
	},
	"serve-mix": {
		why:     "lightd cold traffic: no-cache queries, batches, streams, cached queries and edge writes together, so scheduler start-up, admission, lanes, NDJSON and invalidation appear",
		dataset: "yt-s", scale: 4, tailQ: 0.95,
		setup: setupServeMix, oracle: mixOracle,
	},
	"delta-stream": {
		why:     "library on lj-s under a stationary edge stream: ApplyEdges, Count on the dirty snapshot, CountDelta and Compact, the overlay work oneshot-heavy never does",
		dataset: "lj-s", scale: 1, tailQ: 0.90,
		setup: setupDeltaStream, oracle: deltaOracle,
	},
}

// loadWorkers is W: the workers of a parallel pass and the clients of a
// serving workload. The load comes from this process, so it never asks
// for more than the host has.
func loadWorkers() int {
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	return w
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure drives the closed loop for about d and returns what it
	// saw. With traced set it records spans around every layer call.
	measure(d time.Duration, traced bool) (*measurement, error)
	// finish runs the untimed end-of-run checks that need the live
	// instance (a final recount), recording failures in meas.
	finish(meas *measurement) error
	// close releases what set-up started (the server and its listener).
	close()
}

// obsKey identifies an answer to check: a query ("P2", or "P2@d3" for a
// batch member at min_degree 3) in a graph state. State "any" accepts
// the count of S0 or of S0+E: a reader racing the writer may see either.
type obsKey struct {
	State string
	Query string
	Rows  bool // the value is a row count of a limited stream
}

// measurement is what one measured interval produced.
type measurement struct {
	opLat     map[string]*hist // latency of each operation, by class
	ops       int              // operations completed
	opSeconds float64          // time they took: wall for concurrent clients, their sum for a single caller
	attempted int
	failed    int
	failures  []string // first few, for the report

	answers map[obsKey]map[uint64]int // value seen -> times
	spans   []span

	// Per-layer observations of the workload itself.
	admitWait     hist
	admitWaitNS   int64
	engineReqNS   int64 // latency of requests that ran the engine
	reports       int
	degraded      int
	slotsShed     uint64
	reqLat        hist // every request, for the tail percentiles
	respBytes     int64
	requests      int
	status429     int
	status5xx     int
	enumRows      int64
	enumSeconds   float64
	mutateLat     hist
	cacheHitRatio float64
}

func newMeasurement() *measurement {
	return &measurement{answers: make(map[obsKey]map[uint64]int), opLat: make(map[string]*hist)}
}

// addOp records one operation's latency. Operations of one class are
// alike (the same request type and pattern); op_p50_ms and op_tail_ms
// are means of the classes' percentiles, so they do not move when the
// mix between classes does.
func (m *measurement) addOp(class string, d time.Duration) {
	h := m.opLat[class]
	if h == nil {
		h = new(hist)
		m.opLat[class] = h
	}
	h.add(float64(d))
}

// opQuantile returns the mean over classes of the class q-quantile in
// milliseconds, and the number of samples behind it.
func (m *measurement) opQuantile(q float64) (ms float64, n int) {
	if len(m.opLat) == 0 {
		return 0, 0
	}
	for _, h := range m.opLat {
		ms += h.quantile(q) / 1e6
		n += h.n
	}
	return ms / float64(len(m.opLat)), n
}

func (m *measurement) observe(k obsKey, v uint64) {
	seen := m.answers[k]
	if seen == nil {
		seen = make(map[uint64]int)
		m.answers[k] = seen
	}
	seen[v]++
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// noteReport folds one run's RunReport into the admission observations.
func (m *measurement) noteReport(rep *light.RunReport, latencyNS int64) {
	if rep == nil {
		return
	}
	m.reports++
	m.engineReqNS += latencyNS
	m.admitWaitNS += int64(rep.AdmissionWaitNS)
	m.admitWait.add(float64(rep.AdmissionWaitNS))
	m.slotsShed += rep.SlotsShed
	if len(rep.DegradationEvents) > 0 {
		m.degraded++
	}
}

// merge folds a client's measurement into m.
func (m *measurement) merge(o *measurement) {
	for class, oh := range o.opLat {
		if h := m.opLat[class]; h != nil {
			h.merge(oh)
		} else {
			m.opLat[class] = oh
		}
	}
	m.ops += o.ops
	m.attempted += o.attempted
	m.failed += o.failed
	for _, f := range o.failures {
		if len(m.failures) < 8 {
			m.failures = append(m.failures, f)
		}
	}
	for k, seen := range o.answers {
		if m.answers[k] == nil {
			m.answers[k] = make(map[uint64]int, len(seen))
		}
		for v, n := range seen {
			m.answers[k][v] += n
		}
	}
	m.admitWait.merge(&o.admitWait)
	m.admitWaitNS += o.admitWaitNS
	m.engineReqNS += o.engineReqNS
	m.reports += o.reports
	m.degraded += o.degraded
	m.slotsShed += o.slotsShed
	m.reqLat.merge(&o.reqLat)
	m.respBytes += o.respBytes
	m.requests += o.requests
	m.status429 += o.status429
	m.status5xx += o.status5xx
	m.enumRows += o.enumRows
	m.enumSeconds += o.enumSeconds
	m.mutateLat.merge(&o.mutateLat)
}

// verify checks every observed answer against the oracle.
func (m *measurement) verify(expected map[string]uint64) {
	want := func(state, query string, rows bool) (uint64, bool) {
		v, ok := expected[state+"/"+query]
		if rows && v > enumerateLimit {
			v = enumerateLimit
		}
		return v, ok
	}
	for k, seen := range m.answers {
		states := []string{k.State}
		if k.State == "any" {
			states = []string{"S0", "S0+E"}
		}
		for got, times := range seen {
			ok := false
			for _, st := range states {
				w, known := want(st, k.Query, k.Rows)
				if !known {
					m.fail("no expected count for %s/%s", st, k.Query)
				}
				ok = ok || (known && w == got)
			}
			if !ok {
				m.failed += times - 1
				m.fail("%s in state %s: got %d (%d times), oracle disagrees", k.Query, k.State, got, times)
			}
		}
	}
}

// workloadLayerMetrics sets the per-layer metrics that come from the
// workload's own traffic; a layer the workload never enters reports 0.
func workloadLayerMetrics(ms metricSet, m *measurement) {
	setQ := func(name string, h *hist, q float64) { ms.set(name, h.quantile(q)/1e3, h.n) }
	setQ("admission.wait_p50_us", &m.admitWait, 0.5)
	ms.set("admission.wait_share", ratio(float64(m.admitWaitNS), float64(m.engineReqNS)), m.reports)
	ms.set("admission.degraded_ratio", ratio(float64(m.degraded), float64(m.reports)), m.reports)
	ms.set("admission.slots_shed", float64(m.slotsShed), m.reports)
	ms.set("server.cache_hit_ratio", m.cacheHitRatio, m.requests)
	ms.set("server.enumerate_rows_per_s", ratio(float64(m.enumRows), m.enumSeconds), int(m.enumRows))
	ms.set("server.resp_bytes_per_req", ratio(float64(m.respBytes), float64(m.requests)), m.requests)
	setQ("server.req_p95_us", &m.reqLat, 0.95)
	setQ("server.req_p99_us", &m.reqLat, 0.99)
	ms.set("server.status_429", float64(m.status429), m.requests)
	ms.set("server.status_5xx", float64(m.status5xx), m.requests)
	setQ("delta.mutate_p50_us", &m.mutateLat, 0.5)
}

// runtimeSample is the process's allocation and CPU counters at a point.
type runtimeSample struct {
	mem runtime.MemStats
	cpu time.Duration
}

func sampleRuntime() (runtimeSample, error) {
	var s runtimeSample
	runtime.ReadMemStats(&s.mem)
	var err error
	s.cpu, err = cpuTime()
	return s, err
}

// cpuTime returns the processor time, user and system, this process has
// used so far: the program under test and the load generator together.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runtimeMetrics sets runtime.* from the counters around a measurement.
func runtimeMetrics(ms metricSet, before, after runtimeSample, ops int) {
	n := float64(ops)
	ms.set("runtime.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), n), ops)
	ms.set("runtime.allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), n), ops)
	ms.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, int(after.mem.NumGC-before.mem.NumGC))
	ms.set("runtime.cpu_ms_per_op", ratio(float64(after.cpu-before.cpu)/1e6, n), ops)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// addRunSpans records the spans of one library run under the span
// lightIdx, which covers the light.Count call (measured by the harness,
// or reported by the server as the request's run time). The RunReport
// gives the durations the harness cannot see from outside: the run's
// wall after planning, the admission wait at its start, and the
// workers' mean busy time inside the scheduler.
func (t *tracer) addRunSpans(lightIdx int, rep *light.RunReport) {
	if rep == nil {
		return
	}
	t.spans[lightIdx].BusyNS = int64(rep.BusyNS)
	t.spans[lightIdx].QueueWaitNS = int64(rep.QueueWaitNS)
	t.spans[lightIdx].AdmitWaitNS = int64(rep.AdmissionWaitNS)
	run := t.addReported("run", "parallel", lightIdx, rep.WallNS)
	if rep.BusyNS == 0 {
		// The serial path never enters the scheduler.
		t.spans[run].Name, t.spans[run].Layer = "engine.Run", "engine"
		return
	}
	t.spans[run].Name = "parallel.RunContext"
	r := t.spans[run]
	wait := int64(rep.AdmissionWaitNS)
	if wait > r.End-r.Start {
		wait = r.End - r.Start
	}
	if wait > 0 {
		t.add(span{Name: "admission.Admit", Layer: "admission", Parent: run, Req: r.Req, Start: r.Start, End: r.Start + wait})
	}
	workers := int64(rep.Workers)
	if workers < 1 {
		workers = 1
	}
	busy := int64(rep.BusyNS) / workers
	if busy > r.End-r.Start-wait {
		busy = r.End - r.Start - wait
	}
	t.add(span{Name: "engine.workers", Layer: "engine", Parent: run, Req: r.Req, Start: r.End - busy, End: r.End})
}
