#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, identical to CI.
# Usage: scripts/verify.sh [-short]
#   -short  trims the slow paths (stress iterations, module-load test)
set -euo pipefail
cd "$(dirname "$0")/.."

# The -race -cpu 2,4 lines check the scheduler, the stop latch and the
# anchored pool with workers really running at once; on one CPU they
# interleave goroutines but prove nothing about parallel execution.
CPUS=$(nproc)
if (( CPUS < 2 )); then
    echo "verify: FAIL — nproc is $CPUS; this gate needs at least 2 CPUs (its -race -cpu 2,4 lines prove nothing on one)" >&2
    exit 1
fi

SHORT=()
if [[ "${1:-}" == "-short" ]]; then
    SHORT=(-short)
fi

# run_named PKG 'NameA|NameB' FLAGS... runs `go test FLAGS -run PATTERN PKG`
# after checking that every alternative of PATTERN is still the prefix of
# a test in PKG: a -run pattern that matches nothing exits 0 ("no tests
# to run"), so a renamed test would silently stop being checked.
run_named() {
    local pkg=$1 pattern=$2 listed name
    shift 2
    listed=$(go test "$@" -list "$pattern" "$pkg")
    for name in ${pattern//|/ }; do
        if ! grep -q "^$name" <<<"$listed"; then
            echo "verify: FAIL — -run name $name matches no test in $pkg (renamed? update scripts/verify.sh)" >&2
            exit 1
        fi
    done
    go test "$@" -run "$pattern" "$pkg"
}

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> inlining guard: delta.View's Neighbors and Degree, and the lane set's RootMask, inline into the engine"
# A View read pushed over the inline budget would put a CALL in the
# innermost loop, and no test or counter would notice. Every call site of
# Neighbors in computeShared and of Degree in matLoop must be reported
# inlined by the compiler. The engine calls the concrete *lanes.Set so
# that its probes inline too; RootMask's call site in RunRoots is the
# check that it does.
INLINED=$(go build -gcflags=-m ./internal/engine 2>&1)
for spec in 'computeShared e.view.Neighbors( delta.View.Neighbors' \
    'matLoop e.view.Degree( delta.View.Degree' \
    'RunRoots e.lanes.RootMask( lanes.(*Set).RootMask'; do
    read -r fn site callee <<<"$spec"
    read -r lo hi < <(awk -v f="$fn" 'index($0, "func (e *Enumerator) " f "(") == 1 {lo = NR} lo && !hi && /^}/ {hi = NR} END {print lo + 0, hi + 0}' internal/engine/engine.go)
    sites=$(awk -v lo="$lo" -v hi="$hi" -v r="$site" 'NR >= lo && NR <= hi {s = $0; while ((i = index(s, r)) > 0) {n++; s = substr(s, i + length(r))}} END {print n + 0}' internal/engine/engine.go)
    inl=$(awk -F: -v lo="$lo" -v hi="$hi" -v want=" inlining call to $callee" \
        '$1 == "internal/engine/engine.go" && $2 >= lo && $2 <= hi && $4 == want {print $2 ":" $3}' <<<"$INLINED" | sort -u | wc -l)
    if (( lo == 0 || sites == 0 || inl != sites )); then
        echo "verify: FAIL — $callee is inlined at $inl of $sites call sites in (*Enumerator).$fn (lines $lo-$hi)" >&2
        exit 1
    fi
done

echo "==> gofmt -l (lint testdata keeps its deliberately odd sources)"
UNFORMATTED=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [[ -n "$UNFORMATTED" ]]; then
    echo "verify: FAIL — gofmt -l lists:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> lightvet ./... (findings -> lightvet-findings.json, 12s budget)"
# The full analyzer suite runs on every CI push, so its cost is part of
# the contract. Measured on a 2-CPU host: 3.0-3.6 s wall with a warm
# build cache, 4.1 s right after `go build ./...` on an empty one (the
# state this step runs in), compile and link included. The budget is
# about 3x that. The JSON report is uploaded as a CI artifact.
LINT_START=$(date +%s)
go run ./cmd/lightvet -json lightvet-findings.json ./...
LINT_ELAPSED=$(( $(date +%s) - LINT_START ))
if (( LINT_ELAPSED > 12 )); then
    echo "verify: FAIL — lightvet took ${LINT_ELAPSED}s, budget is 12s" >&2
    exit 1
fi

echo "==> lightvet -unused-ignores ./... (stale suppression audit)"
go run ./cmd/lightvet -unused-ignores ./...

echo "==> lint-self: go test -race ./internal/lint/..."
go test -race "${SHORT[@]}" ./internal/lint/...

echo "==> go test -count=1 -shuffle=on ./..."
go test -count=1 -shuffle=on "${SHORT[@]}" ./...

echo "==> go test -race -cpu 2,4 (parallel, engine, lanes, delta, admission, server incl. soaks)"
# Explicit -timeout: under -race these are the slowest steps, and a hang
# should fail with goroutine dumps inside the CI job budget, not at it.
# Explicit -cpu on every race, soak and chaos line: GOMAXPROCS is set by
# the flag, so every host runs the same worker counts (the nproc check
# above makes two of them truly simultaneous).
go test -race -cpu 2,4 -timeout 20m "${SHORT[@]}" \
    ./internal/parallel/... ./internal/engine/... ./internal/lanes/... ./internal/delta/... ./internal/admission/... ./internal/server/...

echo "==> go test -race -cpu 2,4 shared-graph regressions (queries racing hub-index rebuilds, snapshot isolation)"
run_named . 'TestConcurrentQueriesHubThreshold|TestHubIndexOneBuildAcrossQueries|TestSnapshotIsolation' -race -cpu 2,4 -timeout 5m

echo "==> go test -race -cpu 2,4 governor (runs sharing the Governor's pool, memory ceiling, admission timeout, stall watchdog)"
run_named . 'TestGovernor|TestMemoryBudget|TestAdmissionOverloaded|TestStallWatchdog' -race -cpu 2,4 -timeout 10m

echo "==> go test -race -cpu 1,2,4: visitor stop latch, every stop cause, anchored scheduler, CountDelta oracles, default-kernel equivalence, Filter called from several workers, counter baseline, report = result, marks kept across runs"
# The stop latch only matters with two or more workers really running at
# once, CountDelta's visitors run unserialized, the default kernel's hub
# probing is the path every zero-Options query takes, Options.Filter runs
# in the innermost loop of every worker at once (the Filter cells of
# TestCountOptionMatrix run filtered Counts at 2 and 4 workers), and the golden
# counters (testdata/counter_baseline.ndjson) are claimed independent of
# worker count and GOMAXPROCS, as is a report's agreement with its run's
# result, and marks are per-worker state that must keep serial and 4T
# alike: a 1-CPU runner must never be the only evidence for any of them.
# Every early end of a run is a cancel of its one context; the stop
# tests check each cause, through the pool and through the public entry
# points, at every worker count.
run_named ./internal/parallel/ 'TestVisitorNeverCalledAfterStop|TestStopCauses|TestRunAnchored' -race -cpu 1,2,4 -timeout 10m
run_named . 'TestTimeLimitSurfaced|TestCountContextDeadline|TestEnumerateContext|TestCountBatchContextCancel|TestBatchRunCancellation|TestCancelledContextSkipsPlanning' -race -cpu 1,2,4 -timeout 10m
run_named . 'TestCountDelta|TestDefaultKernel|TestCountOptionMatrix' -race -cpu 1,2,4 -timeout 10m
run_named . 'TestCounterBaseline|TestRunReportMatchesResult' -race -cpu 1,2,4 -timeout 10m
run_named ./internal/engine/ 'TestMarksAcrossRuns' -race -cpu 1,2,4 -timeout 10m

echo "==> planner: measured graph statistics, the cost walk's terms, and its choice on lj-s"
# The order the planner picks is the largest lever on a query's work
# (EXPERIMENTS.md "Planner regret"); these pin the statistics it reads on
# hand-countable graphs and its lj-s choice to the fewest-elements class.
run_named ./internal/estimate/ 'TestCollectOnHandCountableGraphs|TestZeroGraph' -count=1
run_named ./internal/plan/ 'TestOrderFractions|TestChooseOnLJS|TestExplain' -count=1

echo "==> cross-order oracle on lj-s at W = 2: every order of P1-P3, P6, P7, and P4's that finish in 2 s"
# Every connected order must give one count; orders differ in which
# symmetry bounds they push into a COMP, which injectivity checks they
# keep and what the counted tail counts. Tier-1 runs the same check on
# yt-s (TestEveryOrderCountsAlike); lj-s's denser hubs take about a
# minute on 2 CPUs.
run_named . 'TestEveryOrderCountsAlikeOnLJS' -count=1 -timeout 10m -crossorder.ljs

echo "==> benchmark module: go vet + go test"
(cd benchmark && go vet . && go test .)

echo "==> lightd smoke: boot the daemon, load a graph, count + enumerate + batch over HTTP"
go run ./cmd/lightd -smoke

echo "==> chaos: go test -race -cpu 2,4 -tags faultinject"
go build -tags faultinject ./...
go test -race -cpu 2,4 -tags faultinject -timeout 20m "${SHORT[@]}" \
    ./internal/faultpoint/ ./internal/parallel/ ./internal/supervise/ ./internal/graph/ ./internal/engine/ ./internal/admission/
# The chaos line above does not cover the root package: count the pool
# workers a CountBatch and a CountDelta start (one pool per call), and
# those governed calls start (one pool per Governor), and fail a
# CountBatch at its admission.
run_named . 'TestOnePoolPerCall|TestGovernedCallsShareOnePool|TestChaosBatchAdmit' -tags faultinject -race -cpu 2,4 -timeout 5m

echo "==> fuzz smoke: FuzzCSRRoundTrip, FuzzMergeKernels, FuzzCheckpointLoad, FuzzQueryRequest (10s each)"
run_named ./internal/graph/ FuzzCSRRoundTrip -fuzz FuzzCSRRoundTrip -fuzztime 10s
run_named ./internal/intersect/ FuzzMergeKernels -fuzz FuzzMergeKernels -fuzztime 10s
run_named ./internal/supervise/ FuzzCheckpointLoad -fuzz FuzzCheckpointLoad -fuzztime 10s
run_named ./internal/server/ FuzzQueryRequest -fuzz FuzzQueryRequest -fuzztime 10s

echo "==> lightdiff differential smoke (lane + edge-delta oracles on)"
if [[ ${#SHORT[@]} -gt 0 ]]; then
    go run ./cmd/lightdiff -cases 40 -quick -lanes -delta
else
    go run ./cmd/lightdiff -cases 200
fi

echo "verify: OK"
