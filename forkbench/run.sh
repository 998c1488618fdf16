#!/usr/bin/env bash
# Builds forkbench from the sources of the checkout it is run in, then
# runs it with the given arguments, e.g.
#
#   bash forkbench/run.sh --workload paper_270d --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product and scratch file
# stays inside the checkout, under .bench_build/ and .bench_out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/forkbench" && go build -o "$build/forkbench" .)
exec "$build/forkbench" "$@"
