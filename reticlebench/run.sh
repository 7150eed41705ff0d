#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash reticlebench/run.sh --workload cold_compile --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/reticlebench" .)
exec "$out/reticlebench" -root "$root" -span-file "$out/trace-spans.jsonl" "$@"
