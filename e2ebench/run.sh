#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload paper-tables --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the checkout, and no module is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/e2ebench" build -o "$out/e2ebench-bin" . >&2
exec "$out/e2ebench-bin" "$@"
