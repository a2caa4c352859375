package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark may print. The table
// below is the single source of names: BENCHMARK.json repeats it for
// the driver, and TestDeclaredMetricsMatchManifest keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd are the metrics a caller of the system sees. Every workload
// reports every one of them (the driver's contract), so each is defined
// in terms of the workload's own operation: a serial+parallel pass pair
// over the query list (oneshot-heavy), one pass of the mutation stream
// (delta-stream), one HTTP request (serve-hot, serve-mix).
//
// op_tail_ms is the workload's tail percentile (workloadSpec.tailQ).
// cpu_ms_per_op is processor time, not wall time: what the work costs
// however the host schedules it. The bounds are set from the spreads
// measured on the committing host (README, "Steadiness"): at least three
// times the widest spread of any workload; setup_s has the widest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// queryList is the pattern list of the library workloads and the probe
// passes: the paper's catalog without P5, whose match count on the
// lj-s stand-in (27M) would alone exceed a run's time budget.
var queryList = []string{"P1", "P2", "P3", "P4", "P6", "P7"}

// traceLayers are the layers a span is attributed to, in the order a
// request crosses them. "harness" is the benchmark's own bookkeeping:
// the part of an operation no layer span covers.
var traceLayers = []string{"http", "server", "light", "admission", "parallel", "engine", "delta", "harness"}

// perLayer are the single-layer metrics of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("graph.parse_edgelist_s", "s"),
		lo("graph.load_csr_s", "s"),
		lo("graph.build_s", "s"),
		lo("graph.hub_build_ms", "ms"),
		lo("graph.fingerprint_ms", "ms"),
		lo("graph.csr_bytes", "bytes"),

		lo("plan.choose_us_p50", "us"),
		lo("plan.choose_us_max", "us"),
		lo("light.plankey_us", "us"),
		lo("light.count_overhead_us", "us"),

		lo("intersect.merge_ns_per_elem", "ns"),
		lo("intersect.mergeblock_ns_per_elem", "ns"),
		lo("intersect.galloping_ns_per_elem", "ns"),
		lo("intersect.hybridblock_ns_per_elem.r1", "ns"),
		lo("intersect.hybridblock_ns_per_elem.r32", "ns"),
		lo("intersect.hybridblock_ns_per_elem.r1024", "ns"),
		lo("intersect.mergebitmap_ns_per_probe", "ns"),
		lo("intersect.elements_per_node", "count"),
		lo("intersect.galloping_pct", "%"),

		lo("engine.ns_per_node", "ns"),
		hi("engine.nodes_per_s", "1/s"),
		lo("engine.nodes", "count"),
		lo("engine.comps", "count"),
		lo("engine.intersections", "count"),
		lo("engine.elements", "count"),
		lo("engine.candidate_bytes", "bytes"),

		lo("parallel.w1_overhead_pct", "%"),
		hi("parallel.pass_speedup", "ratio"),
	}
	for _, p := range queryList {
		defs = append(defs, hi("parallel.speedup."+p, "ratio"))
	}
	defs = append(defs,
		hi("parallel.efficiency", "ratio"),
		lo("parallel.queue_wait_share", "ratio"),
		lo("parallel.busy_imbalance", "ratio"),
		lo("parallel.steals", "count"),
		lo("parallel.donations", "count"),
		lo("parallel.root_chunks", "count"),

		lo("admission.admit_ns", "ns"),
		lo("admission.wait_p50_us", "us"),
		lo("admission.wait_share", "ratio"),
		lo("admission.degraded_ratio", "ratio"),
		lo("admission.slots_shed", "count"),

		hi("lanes.batch_speedup", "ratio"),
		lo("lanes.batch_wall_ms", "ms"),
		lo("lanes.groups", "count"),

		lo("delta.apply_us_per_edge", "us"),
		lo("delta.compact_ms", "ms"),
		lo("delta.overlay_slowdown.t0.1", "ratio"),
		lo("delta.overlay_slowdown.t1", "ratio"),
		lo("delta.overlay_slowdown.t10", "ratio"),
		lo("delta.bitmap_loss_slowdown", "ratio"),
		lo("delta.count_delta_ms", "ms"),
		lo("delta.recount_ms", "ms"),
		lo("delta.count_delta_vs_recount", "ratio"),
		lo("delta.mutate_p50_us", "us"),

		lo("server.handler_hit_us", "us"),
		lo("server.http_overhead_us", "us"),
		lo("server.handler_miss_overhead_us", "us"),
		hi("server.cache_hit_ratio", "ratio"),
		hi("server.enumerate_rows_per_s", "1/s"),
		lo("server.resp_bytes_per_req", "bytes"),
		lo("server.req_p95_us", "us"),
		lo("server.req_p99_us", "us"),
		lo("server.status_429", "count"),
		lo("server.status_5xx", "count"),

		lo("runtime.alloc_bytes_per_op", "bytes"),
		lo("runtime.allocs_per_op", "count"),
		lo("runtime.gc_pause_ms", "ms"),
		lo("runtime.cpu_ms_per_op", "ms"),

		hi("trace.coverage_pct", "%"),
		lo("trace.overhead_pct", "%"),
		lo("trace.spans", "count"),
	)
	for _, l := range traceLayers {
		defs = append(defs, lo("trace.share."+l, "ratio"))
	}
	return defs
}

// value is one measured metric: the number, and how many samples it
// summarises (1 for a single measurement or an exact count).
type value struct {
	V float64
	N int
}

// metricSet collects a run's metrics by declared name.
type metricSet map[string]value

func (m metricSet) set(name string, v float64, n int) { m[name] = value{V: v, N: n} }

// complete checks that m holds exactly the metrics of defs, each a
// finite number: the driver refuses a result with a metric missing.
func (m metricSet) complete(defs []metricDef) error {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("metric %s is not a finite number", d.Name)
		}
	}
	for name := range m {
		if !declared(defs, name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is
// left untouched. An empty sample has percentile 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos) // q < 1, so lo+1 is in range
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0: a layer a workload never enters
// reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
