#!/usr/bin/env bash
# Builds the flashfc benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload validate16 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary and the Go build cache stay
# inside the checkout, under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
