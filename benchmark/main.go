// Command benchmark is the repository's benchmark: four workloads that
// drive the light library and the lightd server from this process,
// check every answer against an independent oracle, and print the
// end-to-end metrics (untraced) or the per-layer metrics (traced) named
// in BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runSeconds is how long one run measures; BENCHMARK.json repeats it as
// run_seconds for the driver, which passes it back as -seconds
// (TestDeclaredMetricsMatchManifest keeps the two equal).
const runSeconds = 20

// An untraced run sets its workload up at least minSetupReps times, and
// goes on, up to maxSetupReps, while all set-ups together took less than
// setupBudget: a set-up of tens of milliseconds needs more repeats for a
// steady median than one of a second. The first instance is measured;
// the others are built and closed one at a time after peak_rss_mb was
// read, so that the high-water mark is that of one instance.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)

// The benchmark runs from the root of the checkout (run.sh sees to it)
// and writes only below its own directory.
const (
	outDir      = "benchmark/out"      // span files
	expectedDir = "benchmark/expected" // the oracle's cache
)

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	aa       bool
}

func main() {
	var cfg config
	var trace string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "seconds one run measures; the driver passes run_seconds of BENCHMARK.json")
	flag.StringVar(&trace, "trace", "0", "1: run traced and print the per-layer metrics")
	flag.BoolVar(&cfg.aa, "aa", false, "run the untraced suite twice and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	switch trace {
	case "0":
	case "1":
		cfg.trace = true
	default:
		fatal(fmt.Errorf("-trace wants 0 or 1, got %q", trace))
	}
	if cfg.seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	var err error
	switch {
	case cfg.aa:
		err = runAA(cfg)
	case cfg.workload == "":
		_, err = runSuite(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg config) error {
	spec, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	fmt.Printf("# workload %s seed %d seconds %d trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# host NumCPU=%d GOMAXPROCS=%d W=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), loadWorkers(), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	// Set-up: generate the inputs, build the graph, boot and warm
	// whatever the workload serves from.
	setUp := func() (instance, graphInput, time.Duration, error) {
		start := time.Now()
		in, err := makeGraphInput(spec.dataset, spec.scale, cfg.seed)
		if err != nil {
			return nil, in, 0, err
		}
		inst, err := spec.setup(in, cfg.seed)
		if err != nil {
			return nil, in, 0, fmt.Errorf("set-up: %w", err)
		}
		return inst, in, time.Since(start), nil
	}
	inst, in, firstSetup, err := setUp()
	if err != nil {
		return err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	ms := make(metricSet)
	var meas *measurement
	if cfg.trace {
		meas, err = runTraced(cfg, inst, in, ms)
	} else {
		meas, err = measureEndToEnd(cfg, spec, inst, ms)
	}
	if err != nil {
		return err
	}

	// Untimed: the oracle, then every recorded answer against it.
	expected, err := loadExpected(cfg, spec, in)
	if err != nil {
		return err
	}
	meas.verify(expected)
	if err := inst.finish(meas); err != nil {
		return err
	}
	inst.close()
	inst = nil
	if !cfg.trace {
		setups := []float64{firstSetup.Seconds()}
		for spent := firstSetup; len(setups) < minSetupReps || (len(setups) < maxSetupReps && spent < setupBudget); {
			again, _, took, err := setUp()
			if err != nil {
				return err
			}
			again.close()
			spent += took
			setups = append(setups, took.Seconds())
		}
		ms.set("setup_s", median(setups), len(setups))
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := ms.complete(defs); err != nil {
		return err
	}
	res := result{
		Correct: meas.failed == 0, Attempted: meas.attempted, Failed: meas.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := ms[d.Name]
		if oversubscribed() && isScaling(d.Name) {
			fmt.Printf("%s %s oversubscribed n=0\n", d.Name, d.Unit)
		} else {
			fmt.Printf("%s %s %v n=%d\n", d.Name, d.Unit, v.V, v.N)
		}
		res.Metrics[d.Name] = metricValue{Value: v.V, Unit: d.Unit}
	}
	fmt.Printf("fail_ratio failed/attempted %v n=%d\n", ratio(float64(meas.failed), float64(meas.attempted)), meas.attempted)
	for _, f := range meas.failures {
		fmt.Fprintln(os.Stderr, "benchmark: wrong answer:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or answered wrongly", meas.failed, meas.attempted)
	}
	return nil
}

// measureEndToEnd is the untraced run: it measures inst for the run
// length and sets every end-to-end metric but setup_s.
func measureEndToEnd(cfg config, spec workloadSpec, inst instance, ms metricSet) (*measurement, error) {
	cpuBefore, err := cpuTime()
	if err != nil {
		return nil, err
	}
	meas, err := inst.measure(time.Duration(cfg.seconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	cpuAfter, err := cpuTime()
	if err != nil {
		return nil, err
	}
	// Read before the oracle and the further set-ups raise it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p50, n := meas.opQuantile(0.5)
	tail, _ := meas.opQuantile(spec.tailQ)
	ms.set("op_p50_ms", p50, n)
	ms.set("op_tail_ms", tail, n)
	ms.set("ops_per_s", ratio(float64(meas.ops), meas.opSeconds), meas.ops)
	ms.set("cpu_ms_per_op", ratio(float64(cpuAfter-cpuBefore)/1e6, float64(meas.ops)), meas.ops)
	ms.set("peak_rss_mb", rss, 1)
	return meas, nil
}

// runTraced is the traced run: a third of the run untraced, a third
// traced, then the per-layer probes on the workload's graph.
func runTraced(cfg config, inst instance, in graphInput, ms metricSet) (*measurement, error) {
	third := time.Duration(cfg.seconds) * time.Second / 3
	plain, err := inst.measure(third, false)
	if err != nil {
		return nil, err
	}
	before, err := sampleRuntime()
	if err != nil {
		return nil, err
	}
	traced, err := inst.measure(third, true)
	if err != nil {
		return nil, err
	}
	after, err := sampleRuntime()
	if err != nil {
		return nil, err
	}
	runtimeMetrics(ms, before, after, traced.ops)
	workloadLayerMetrics(ms, traced)
	traceMetrics(ms, traced.spans)
	tracedP50, n := traced.opQuantile(0.5)
	plainP50, _ := plain.opQuantile(0.5)
	ms.set("trace.overhead_pct", 100*(ratio(tracedP50, plainP50)-1), n)
	path := filepath.Join(outDir, "trace-"+cfg.workload+".json")
	if err := writeSpans(path, cfg.workload, cfg.seed, traced.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	if err := runProbes(ms, in, cfg.seed); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	// Both intervals' answers are checked.
	traced.merge(plain)
	return traced, nil
}

// expectedFile is the oracle's cache: the reference counts of one
// workload and seed, tied to the inputs they were computed for.
type expectedFile struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	InputHash string            `json:"input_hash"`
	Oracle    string            `json:"oracle"`
	Counts    map[string]uint64 `json:"counts"`
}

// loadExpected returns the workload's reference counts, from
// expected/<workload>-<seed>.json when that file matches the inputs,
// otherwise from the oracle, whose answer it then caches there.
func loadExpected(cfg config, spec workloadSpec, in graphInput) (map[string]uint64, error) {
	path := filepath.Join(expectedDir, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	hash := fmt.Sprintf("%016x", in.hash())
	if data, err := os.ReadFile(path); err == nil {
		var f expectedFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.InputHash != hash {
			return nil, fmt.Errorf("%s was computed for other inputs (hash %s, now %s): the input generator changed; delete the file to have the oracle compute it again", path, f.InputHash, hash)
		}
		return f.Counts, nil
	}
	counts, err := spec.oracle(in, cfg.seed)
	if err != nil {
		return nil, err
	}
	f := expectedFile{Workload: cfg.workload, Seed: cfg.seed, InputHash: hash, Oracle: "Algorithm SE, Merge kernel, 1 worker", Counts: counts}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return counts, nil
}

// runSuite runs every workload in a process of its own (peak memory is
// per process) and returns each one's result.
func runSuite(cfg config) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make(map[string]result, len(workloadNames))
	for _, w := range workloadNames {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		fmt.Print(string(stdout))
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("workload %s: parsing result: %w", w, err)
		}
		out[w] = r
	}
	return out, nil
}

// runAA runs the untraced suite twice on the same commit and fails if
// any end-to-end metric differs between the two by more than its own
// bound, whichever of the two runs was the slow one.
func runAA(cfg config) error {
	cfg.trace = false
	a, err := runSuite(cfg)
	if err != nil {
		return err
	}
	b, err := runSuite(cfg)
	if err != nil {
		return err
	}
	var over []string
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			va, vb := a[w].Metrics[d.Name].Value, b[w].Metrics[d.Name].Value
			diff := ratio(math.Abs(vb-va), math.Min(va, vb))
			mark := ""
			if diff > d.Bound {
				mark = "  EXCEEDS BOUND"
				over = append(over, w+"/"+d.Name)
			}
			fmt.Printf("aa %s %s first=%v second=%v differ_by=%.2f%% bound=%.0f%%%s\n", w, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("A/A runs disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
