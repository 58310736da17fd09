#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ (the
# Go build cache too, so nothing is written outside the checkout) and
# runs it with the given arguments. Run from the repository root.
set -euo pipefail
root=$PWD
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout of the whole repository (the benchmark builds against it)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/fedbench" .)
exec "$build/fedbench" "$@"
