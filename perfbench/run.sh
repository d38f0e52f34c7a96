#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload thrash --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# span files) goes under .bench_build in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
