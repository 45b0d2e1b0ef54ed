#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it
# from the checkout root, with the benchmark's own flags:
#
#   bash obbench/run.sh --workload tiny-routed --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, checkpoint generations and span files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd obbench && go build -o "$build/obbench" .)
exec "$build/obbench" -workdir "$build/obbench-run" "$@"
