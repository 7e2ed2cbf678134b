#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload sim_disamb --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Every build product, cache and
# scratch file goes under .bench_build/ there; the toolchain never
# touches the network. GOMAXPROCS is pinned to 2 so runs on different
# hosts measure the same parallelism.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec env GOMAXPROCS=2 "$out/bench" "$@"
