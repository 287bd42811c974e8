#!/usr/bin/env bash
# Builds the benchmark and cmd/pqd from source into .bench_build/ in the
# checkout and runs the benchmark. Everything the build and the run write
# stays under .bench_build/: the Go build cache, module cache and temporary
# files are pointed there, so nothing outside the checkout is touched.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pqd" ]; then
	echo "bench: $root holds no program to benchmark (no go.mod, no cmd/pqd)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/work"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOENV=off GOFLAGS=

t0=$(date +%s.%N)
(
	cd "$here"
	go build -o "$build/bin/bench" .
	go build -o "$build/bin/pqd" skipqueue/cmd/pqd
)
t1=$(date +%s.%N)
build_s=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.6f", b - a }')

exec "$build/bin/bench" -pqd "$build/bin/pqd" -work "$build/work" -build-s "$build_s" "$@"
