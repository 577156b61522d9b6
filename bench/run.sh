#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload fig9-native --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# profiles, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" || ! -d "$root/internal" ]]; then
	echo "bench: run from the repository root (need go.mod, internal/ and bench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
