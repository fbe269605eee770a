#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the root of
# the checkout it was called in:
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything a run writes — the Go build cache, the go command's
# telemetry counters, the binaries, scratch directories and traces —
# stays under .bench_build in the checkout ($CARGO_TARGET_DIR when set).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
