#!/usr/bin/env bash
# run.sh — build the benchmark and run it. One command prints every
# metric by name and unit and checks every answer.
#
#   benchmark/run.sh [-seed N] [-workload name] [-seconds S] [-trace 0|1] [-aa]
#
# Without -workload all four run, one process each. Everything the build
# and the run write stays under benchmark/out/ (build cache, binary,
# span files) and benchmark/expected/ (oracle cache).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out"

# Build from source in the checkout, offline, with the toolchain at hand.
# Everything the go command writes (build cache, temporaries, its
# telemetry counters under the user config directory) is pointed inside
# benchmark/out/.
mkdir -p "$out/gotmp"
(
    cd "$here"
    export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
    export XDG_CONFIG_HOME="$out/config"
    export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOWORK=off
    go build -o "$out/benchmark" .
)

cd "$root"
exec "$out/benchmark" "$@"
