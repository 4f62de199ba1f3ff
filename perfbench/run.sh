#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload paper-churn --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run outputs (decision digests,
# spans, decision traces) live under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# Keep every file the toolchain writes inside the build directory.
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
