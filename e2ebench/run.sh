#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it, passing every argument through (see e2ebench/README.md):
#
#   bash e2ebench/run.sh --workload nested-weak --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, result records and span files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" -out-dir "$out/e2ebench-results" -src . "$@"
