#!/usr/bin/env bash
# Builds the benchmark's two binaries from source into .bench_build and
# runs the driver. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload small-fwd --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOPROXY=off
go -C perfbench build -o "$out/bin/" ./cmd/pressbench ./cmd/pressbench-server >&2
exec "$out/bin/pressbench" -root "$root" "$@"
