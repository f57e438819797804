#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload detailed-smt --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root.  The build cache, the binary and the
# service's scratch stores all live under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -spec "$root/BENCHMARK.json" -tmp "$build/tmp" "$@"
