#!/usr/bin/env bash
# Builds the CloudQC benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash cqbench/run.sh --workload paper-batch --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout; daemon-wal keeps its write-ahead logs in memory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/cqbench" .) >&2
exec "$out/cqbench" "$@"
