#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tune-sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# everything the benchmark writes stay under .bench_build/ in the
# checkout. Outside a checkout that holds the module's sources the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
