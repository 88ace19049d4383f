#!/usr/bin/env bash
# Builds the shipped binaries (spamserver, genweb) and the benchmark
# from this checkout, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload lookup --seed 1 --seconds 8 --trace 0
#
# Build outputs, generated inputs and caches go to $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; the Go build cache and
# temporary files are kept there too.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default, "local"), the go command starts a
# detached sidecar process that outlives the build; turning it off
# leaves no process behind.
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/bin/" ./cmd/spamserver ./cmd/genweb >&2
(cd e2ebench && go build -o "$build/bin/e2ebench" .) >&2
exec "$build/bin/e2ebench" -build "$build" "$@"
