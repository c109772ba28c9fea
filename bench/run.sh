#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload train-vgg -seed 1 -seconds 20 -trace 0
#
# Everything the build writes (Go build cache, binary, results, traces)
# stays in .bench_build at the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run it from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off
if [[ -z "${BENCH_COMMIT:-}" ]]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export BENCH_COMMIT
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
