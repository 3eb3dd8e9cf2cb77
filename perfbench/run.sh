#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, trace spans) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
