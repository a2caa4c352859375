package diffcheck

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"light/internal/baselines"
	"light/internal/bfsjoin"
	"light/internal/engine"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/parallel"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// Config tunes a RunCase invocation.
type Config struct {
	// Quick trims the oracle matrix to the cheap core (one serial mode
	// cross-check, one kernel sweep entry, one parallel run, the
	// enumerate-set check). Used by the fuzz target and -short tests.
	Quick bool
	// Workers for the parallel runs (default 3 — odd, so chunk
	// boundaries don't align with the candidate counts).
	Workers int
	// MaxEmbeddings caps the brute-force reference; cases that exceed it
	// are skipped, not failed (default 300000).
	MaxEmbeddings uint64
	// TimeLimit bounds each baseline oracle run (default 30s). A
	// baseline that reports a budget error is skipped, not failed.
	TimeLimit time.Duration
	// Lanes forces the lane oracle stage (a root-window lane set, and a
	// degree-narrowed lane set beside a plain job; per-lane counters vs
	// sequential references) even in Quick mode; full mode always runs
	// it.
	Lanes bool
	// Delta forces the edge-delta oracle stage (a seed-derived mutation
	// batch applied copy-on-write, checked against a fresh CSR rebuild
	// and the CountDelta identity) even in Quick mode; full mode always
	// runs it.
	Delta bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.MaxEmbeddings == 0 {
		cfg.MaxEmbeddings = 300000
	}
	if cfg.TimeLimit == 0 {
		cfg.TimeLimit = 30 * time.Second
	}
	return cfg
}

// Outcome summarizes a non-failing RunCase.
type Outcome struct {
	Skipped bool   // the case was not evaluated (reason says why)
	Reason  string // skip reason
	Ref     uint64 // reference match count (embeddings / |Aut|)
	Checks  int    // oracle comparisons that ran
}

// Discrepancy is a differential failure: some implementation disagreed
// with the reference on this case. It carries the case so the shrinker
// and repro renderer can pick it up directly.
type Discrepancy struct {
	Case   Case
	Stage  string // which comparison failed, e.g. "parallel/kernel=Hybrid"
	Want   uint64
	Got    uint64
	Detail string
}

// Error renders the discrepancy with enough context to reproduce it.
func (d *Discrepancy) Error() string {
	s := fmt.Sprintf("diffcheck: %s: got %d, want %d (family=%s seed=%d |V(G)|=%d |E(G)|=%d |V(P)|=%d |E(P)|=%d)",
		d.Stage, d.Got, d.Want, d.Case.Family, d.Case.Seed,
		d.Case.GraphN, len(d.Case.GraphEdges), d.Case.PatternN, len(d.Case.PatternEdges))
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// engineVariant is one point in the kernel × {count-only, visitor} ×
// DegreeFilter cube. A count-only run counts σ's trailing MATs; a run
// with a visitor walks every level to the leaves, the paper's engine.
type engineVariant struct {
	name  string
	opts  engine.Options
	visit bool
}

// visitor returns the variant's visitor: nil for a count-only run, one
// that accepts every match otherwise.
func (v engineVariant) visitor() engine.VisitFunc {
	if !v.visit {
		return nil
	}
	return func([]graph.VertexID) bool { return true }
}

func variants(quick bool) []engineVariant {
	kernels := []intersect.Kind{
		intersect.KindMerge, intersect.KindMergeBlock, intersect.KindGalloping,
		intersect.KindHybrid, intersect.KindHybridBlock,
		intersect.KindHybridBitmap,
	}
	if quick {
		// The cheap core: the paper's leaf loop, the counted tail under
		// DegreeFilter, and the bitmap-probe path.
		return []engineVariant{
			{"kernel=Merge,visit", engine.Options{}, true},
			{"kernel=Hybrid,df", engine.Options{Kernel: intersect.KindHybrid, DegreeFilter: true}, false},
			{"kernel=HybridBitmap", engine.Options{Kernel: intersect.KindHybridBitmap}, false},
		}
	}
	var vs []engineVariant
	for _, k := range kernels {
		for _, visit := range []bool{false, true} {
			for _, df := range []bool{false, true} {
				name := "kernel=" + k.String()
				if visit {
					name += ",visit"
				}
				if df {
					name += ",df"
				}
				vs = append(vs, engineVariant{name, engine.Options{Kernel: k, DegreeFilter: df}, visit})
			}
		}
	}
	return vs
}

// RunCase evaluates the full oracle matrix on one case. It returns a
// nil Discrepancy when every implementation agrees (or the case was
// skipped; see Outcome.Skipped), and the first disagreement otherwise.
func RunCase(c Case, cfg Config) (Outcome, *Discrepancy) {
	cfg = cfg.withDefaults()
	out := Outcome{}
	fail := func(stage string, want, got uint64, detail string) (Outcome, *Discrepancy) {
		return out, &Discrepancy{Case: c, Stage: stage, Want: want, Got: got, Detail: detail}
	}

	g, p, err := c.Build()
	if err != nil {
		out.Skipped, out.Reason = true, err.Error()
		return out, nil
	}
	// Differential graphs are tiny, far below the auto hub threshold, so
	// derive a small τ from the seed: most cases get indexed hubs (the
	// bitmap kernels' probe path), the rest keep the auto index and
	// exercise the list fallback.
	if c.Seed%4 != 0 {
		g.BuildHubIndex(1 + int(uint64(c.Seed)%7))
	}
	po := pattern.SymmetryBreaking(p)
	orders := plan.ConnectedOrders(p, po)
	if len(orders) == 0 {
		out.Skipped, out.Reason = true, "no connected enumeration order"
		return out, nil
	}

	// Reference: embeddings + image-edge-set keys on the *ordered*
	// graph's labels, so engine-emitted mappings compare directly.
	oe := graphEdges(g)
	ref := countEmbeddings(g.NumVertices(), oe, c.PatternN, c.PatternEdges, cfg.MaxEmbeddings, true)
	if ref.Capped {
		out.Skipped, out.Reason = true, fmt.Sprintf("reference exceeded %d embeddings", cfg.MaxEmbeddings)
		return out, nil
	}
	aut := autCount(c.PatternN, c.PatternEdges)
	if aut == 0 || ref.Embeddings%aut != 0 {
		return fail("oracle/aut-divisibility", 0, ref.Embeddings%aut,
			fmt.Sprintf("embeddings=%d not divisible by |Aut|=%d", ref.Embeddings, aut))
	}
	want := ref.Embeddings / aut
	out.Ref = want
	out.Checks++
	if got := uint64(len(ref.Keys)); got != want {
		// Self-check of the subgraph-identity argument: #distinct image
		// edge sets must equal embeddings/|Aut|.
		return fail("oracle/key-count", want, got, "distinct image edge sets != embeddings/|Aut|")
	}

	// Independent |Aut| cross-check against the pattern package.
	out.Checks++
	if got := uint64(len(p.Automorphisms())); got != aut {
		return fail("oracle/automorphisms", aut, got, "pattern.Automorphisms disagrees with self-embedding count")
	}

	pi := orders[int(uint64(c.Seed)%uint64(len(orders)))]

	// Serial plan modes.
	modes := []plan.Mode{plan.ModeLIGHT, plan.ModeSE}
	if !cfg.Quick {
		modes = append(modes, plan.ModeLM, plan.ModeMSC)
	}
	plans := map[plan.Mode]*plan.Plan{}
	for _, mode := range modes {
		pl, err := plan.Compile(p, po, pi, mode)
		if err != nil {
			return fail("compile/"+mode.Name(), want, 0, err.Error())
		}
		plans[mode] = pl
		res, err := engine.New(g, pl, engine.Options{}).Run(nil)
		if err != nil {
			return fail("serial/"+mode.Name(), want, 0, err.Error())
		}
		out.Checks++
		if res.Matches != want {
			return fail("serial/"+mode.Name(), want, res.Matches, "")
		}
	}
	light := plans[plan.ModeLIGHT]

	// In full mode, every remaining connected order must agree too (the
	// shrinker often reduces failures to order sensitivity).
	if !cfg.Quick {
		for oi, alt := range orders {
			if oi == int(uint64(c.Seed)%uint64(len(orders))) {
				continue
			}
			pl, err := plan.Compile(p, po, alt, plan.ModeLIGHT)
			if err != nil {
				return fail(fmt.Sprintf("compile/order[%d]", oi), want, 0, err.Error())
			}
			res, err := engine.New(g, pl, engine.Options{}).Run(nil)
			if err != nil {
				return fail(fmt.Sprintf("serial/order[%d]", oi), want, 0, err.Error())
			}
			out.Checks++
			if res.Matches != want {
				return fail(fmt.Sprintf("serial/order[%d]", oi), want, res.Matches, "")
			}
		}
	}

	// Kernel × {count-only, visitor} × DegreeFilter cube, serial; each
	// variant's Result is kept as the twin for the parallel
	// counter-equality check.
	// A count-only run counts its trailing levels instead of walking
	// them, and must still report the nodes its visitor twin expands.
	vs := variants(cfg.Quick)
	serialRes := make([]engine.Result, len(vs))
	twinNodes := map[string]uint64{}
	for i, v := range vs {
		res, err := engine.New(g, light, v.opts).Run(v.visitor())
		if err != nil {
			return fail("serial/"+v.name, want, 0, err.Error())
		}
		out.Checks++
		if res.Matches != want {
			return fail("serial/"+v.name, want, res.Matches, "")
		}
		twin := strings.Replace(v.name, ",visit", "", 1)
		if nodes, ok := twinNodes[twin]; ok && nodes != res.Nodes {
			return fail("nodes/"+v.name, nodes, res.Nodes, "count-only and visitor runs expanded different node counts")
		}
		twinNodes[twin] = res.Nodes
		serialRes[i] = res
	}

	// Parallel: every variant on the pool, with exact counter equality
	// against the serial twin: every root runs whole on one worker, so
	// Nodes/Comps/Stats are partition-independent.
	for i, v := range vs {
		res, err := parallel.Run(g, light, parallel.Options{Engine: v.opts, Workers: cfg.Workers, ChunkSize: 4}, v.visitor())
		if err != nil {
			return fail("parallel/"+v.name, want, 0, err.Error())
		}
		out.Checks++
		if res.Matches != want {
			return fail("parallel/"+v.name, want, res.Matches, "")
		}
		if d := counterDiff(serialRes[i], res.Result); d != "" {
			return fail("counters/"+v.name, want, res.Matches, d)
		}
	}

	// Lane oracle: the same case run bit-parallel — a root-window lane
	// set and a degree-narrowed one beside a plain job — with each lane's
	// attributed counters demanded equal to a sequential run.
	if cfg.Lanes || !cfg.Quick {
		var alt *plan.Plan
		if len(orders) > 1 {
			oi := (int(uint64(c.Seed)%uint64(len(orders))) + 1) % len(orders)
			alt, err = plan.Compile(p, po, orders[oi], plan.ModeLIGHT)
			if err != nil {
				return fail("lanes/compile-alt", want, 0, err.Error())
			}
		}
		if d := checkLanes(c, g, light, alt, want, cfg, intersect.KindMerge); d != nil {
			out.Checks++
			return out, d
		}
		out.Checks += 2
	}

	// Edge-delta oracles: the case's own graph mutated through
	// delta.Apply and counted by the engine against a materialized CSR,
	// then the same case mutated through the public copy-on-write API,
	// with the overlay count checked against a fresh rebuild and
	// CountDelta checked against the counting identity.
	if cfg.Delta || !cfg.Quick {
		if d := checkOverlay(c, g, light); d != nil {
			out.Checks++
			return out, d
		}
		if d := checkDelta(c, want, cfg); d != nil {
			out.Checks++
			return out, d
		}
		out.Checks += 6
	}

	// Enumerate mode: the emitted mapping set must be exactly the
	// reference image sets, with no duplicates (symmetry breaking emits
	// one representative per automorphism class).
	if d := checkEnumerate(c, g, light, ref.Keys, want, "enumerate/serial", func(visit engine.VisitFunc) error {
		_, err := engine.New(g, light, engine.Options{}).Run(visit)
		return err
	}); d != nil {
		out.Checks++
		return out, d
	}
	out.Checks++
	if !cfg.Quick {
		if d := checkEnumerate(c, g, light, ref.Keys, want, "enumerate/parallel", func(visit engine.VisitFunc) error {
			var mu sync.Mutex
			_, err := parallel.Run(g, light, parallel.Options{
				Workers: cfg.Workers, ChunkSize: 4,
			}, func(m []graph.VertexID) bool {
				mu.Lock()
				defer mu.Unlock()
				return visit(m)
			})
			return err
		}); d != nil {
			out.Checks++
			return out, d
		}
		out.Checks++
	}

	if !cfg.Quick {
		if d := checkMarks(c, g, light, want, cfg); d != nil {
			out.Checks++
			return out, d
		}
		out.Checks += 4

		// BFS-join and worst-case-optimal baselines. Budget errors skip
		// the individual oracle; any returned count must agree.
		type baseline struct {
			name string
			run  func() (uint64, error)
		}
		bopts := bfsjoin.Options{MaxBytes: 1 << 30, TimeLimit: cfg.TimeLimit}
		for _, b := range []baseline{
			{"EH", func() (uint64, error) {
				r, err := baselines.EH(g, p, baselines.Options{MaxBytes: 1 << 30, TimeLimit: cfg.TimeLimit})
				return r.Matches, err
			}},
			{"CFL", func() (uint64, error) {
				r, err := baselines.CFL(g, p, baselines.Options{TimeLimit: cfg.TimeLimit})
				return r.Matches, err
			}},
			{"SEED", func() (uint64, error) {
				r, err := bfsjoin.SEED(g, p, bopts)
				return r.Matches, err
			}},
			{"TwinTwig", func() (uint64, error) {
				r, err := bfsjoin.TwinTwig(g, p, bopts)
				return r.Matches, err
			}},
		} {
			got, err := b.run()
			if err != nil {
				continue // budget exhausted — not a correctness signal
			}
			out.Checks++
			if got != want {
				return fail("baseline/"+b.name, want, got, "")
			}
		}

		// Kill-and-resume checkpoint round-trip: stop the run partway via
		// the visitor, reload the final snapshot, resume in count mode, and
		// demand the committed + re-enumerated total equals the reference.
		if want >= 2 {
			if d := checkResume(c, g, light, want, cfg); d != nil {
				out.Checks++
				return out, d
			}
			out.Checks++
		}
	}

	return out, nil
}

// checkMarks runs the case's LIGHT plan with every operand marked that
// the mark rule may flag (plan.MarkAll), under the bitmap kernel: the
// planner marks only where a large graph's walk says marks pay, so no
// case plan carries one. Count-only and visitor runs, a lane batch and
// the seed's edge-delta overlay must each find the reference count and
// expand the nodes of the same run on the unmarked plan: a mark changes
// how a candidate set is computed, never what it holds. Cases without
// an indexed hub run the marked plan on the list path (see
// engine.Options.Kernel), as the planner's plans would.
func checkMarks(c Case, g *graph.Graph, pl *plan.Plan, want uint64, cfg Config) *Discrepancy {
	marked := pl.MarkAll()
	if marked == nil {
		return nil
	}
	opts := engine.Options{Kernel: intersect.KindHybridBitmap}
	for _, visit := range []engine.VisitFunc{nil, func([]graph.VertexID) bool { return true }} {
		stage := fmt.Sprintf("marks/serial(visitor %v)", visit != nil)
		twin, err := engine.New(g, pl, opts).Run(visit)
		if err != nil {
			return &Discrepancy{Case: c, Stage: stage, Want: want, Detail: err.Error()}
		}
		res, err := engine.New(g, marked, opts).Run(visit)
		if err != nil {
			return &Discrepancy{Case: c, Stage: stage, Want: want, Detail: err.Error()}
		}
		if res.Matches != want {
			return &Discrepancy{Case: c, Stage: stage, Want: want, Got: res.Matches}
		}
		if res.Nodes != twin.Nodes {
			return &Discrepancy{Case: c, Stage: stage, Want: twin.Nodes, Got: res.Nodes, Detail: "marked and unmarked plans expanded different node counts"}
		}
	}
	d := checkLanes(c, g, marked, nil, want, cfg, intersect.KindHybridBitmap)
	if d == nil {
		d = checkOverlay(c, g, pl, marked)
	}
	if d != nil {
		d.Stage = "marks/" + d.Stage
	}
	return d
}

// counterDiff compares the partition-independent counters of a serial
// run and a parallel run under identical engine options.
func counterDiff(s, p engine.Result) string {
	var diffs []string
	add := func(name string, a, b uint64) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s: serial=%d parallel=%d", name, a, b))
		}
	}
	add("Matches", s.Matches, p.Matches)
	add("Nodes", s.Nodes, p.Nodes)
	add("Comps", s.Comps, p.Comps)
	add("Stats.Intersections", s.Stats.Intersections, p.Stats.Intersections)
	add("Stats.Galloping", s.Stats.Galloping, p.Stats.Galloping)
	add("Stats.Elements", s.Stats.Elements, p.Stats.Elements)
	add("Stats.BitmapProbes", s.Stats.BitmapProbes, p.Stats.BitmapProbes)
	return strings.Join(diffs, "; ")
}

// checkEnumerate drives an enumeration through run and checks the
// emitted mappings against the reference key set: right count, no
// duplicate subgraphs, and set equality with the oracle.
func checkEnumerate(c Case, g *graph.Graph, pl *plan.Plan, refKeys map[string]bool, want uint64,
	stage string, run func(engine.VisitFunc) error) *Discrepancy {
	got := map[string]bool{}
	dup := ""
	var emitted uint64
	err := run(func(m []graph.VertexID) bool {
		emitted++
		k := imageKey(c.PatternEdges, func(u int) uint32 { return uint32(m[u]) })
		if got[k] && dup == "" {
			dup = k
		}
		got[k] = true
		return true
	})
	if err != nil {
		return &Discrepancy{Case: c, Stage: stage, Want: want, Detail: err.Error()}
	}
	if emitted != want {
		return &Discrepancy{Case: c, Stage: stage, Want: want, Got: emitted, Detail: "emitted mapping count"}
	}
	if dup != "" {
		return &Discrepancy{Case: c, Stage: stage, Want: want, Got: emitted,
			Detail: "duplicate subgraph emitted: " + dup}
	}
	for k := range got {
		if !refKeys[k] {
			return &Discrepancy{Case: c, Stage: stage, Want: want, Got: emitted,
				Detail: "emitted subgraph not in reference set: " + k}
		}
	}
	for k := range refKeys {
		if !got[k] {
			return &Discrepancy{Case: c, Stage: stage, Want: want, Got: emitted,
				Detail: "reference subgraph never emitted: " + k}
		}
	}
	return nil
}

// checkResume interrupts a checkpointed parallel run roughly halfway,
// reloads the snapshot, and verifies the resumed run completes the
// count exactly.
func checkResume(c Case, g *graph.Graph, pl *plan.Plan, want uint64, cfg Config) *Discrepancy {
	f, err := os.CreateTemp("", "lightdiff-*.ckpt")
	if err != nil {
		return &Discrepancy{Case: c, Stage: "resume/tempfile", Want: want, Detail: err.Error()}
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return &Discrepancy{Case: c, Stage: "resume/tempfile", Want: want, Detail: err.Error()}
	}
	defer os.Remove(path)

	stopAt := want / 2
	if stopAt == 0 {
		stopAt = 1
	}
	var mu sync.Mutex
	var seen uint64
	opts := parallel.Options{
		Workers:    cfg.Workers,
		ChunkSize:  4,
		Checkpoint: &parallel.CheckpointOptions{Path: path, Interval: time.Hour},
	}
	_, err = parallel.Run(g, pl, opts, func(m []graph.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		seen++
		return seen < stopAt
	})
	if err != nil {
		return &Discrepancy{Case: c, Stage: "resume/interrupted-run", Want: want, Detail: err.Error()}
	}
	ck, err := supervise.LoadCheckpoint(path)
	if err != nil {
		return &Discrepancy{Case: c, Stage: "resume/load", Want: want, Detail: err.Error()}
	}
	resumed := parallel.Options{
		Workers:   cfg.Workers,
		ChunkSize: 4,
		Resume:    ck,
	}
	res, err := parallel.Run(g, pl, resumed, nil)
	if err != nil {
		return &Discrepancy{Case: c, Stage: "resume/resumed-run", Want: want, Detail: err.Error()}
	}
	if res.Matches != want {
		return &Discrepancy{Case: c, Stage: "resume/total", Want: want, Got: res.Matches,
			Detail: fmt.Sprintf("stopped after %d visits, checkpoint committed %d matches", seen, ck.Base.Matches)}
	}
	return nil
}
