#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload explore-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the Go toolchain writes
# (build cache, temporary files, config) stays under .bench_build/ there.
# Without the repository's sources next to bench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/xbiosip-bench" .)
exec "$out/xbiosip-bench" "$@"
