#!/usr/bin/env bash
# Builds the stskbench program from the checkout's source and runs it with
# the given arguments. Run from the repository root:
#
#   bash stskbench/run.sh --workload pcg-ic0 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span files and snapshot scratch.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" # the go command's own state and scratch
(cd "$here" && go build -o "$out/stskbench" .)
exec "$out/stskbench" --out "$out/stskbench-out" "$@"
