#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload query-fleet --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
