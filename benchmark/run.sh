#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout (build
# cache and temporary files included, so nothing outside it is written) and
# run it with the driver's arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# In a directory without the repository's go.mod and internal/ packages the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/charmbench" ./benchmark >&2
exec "$build/charmbench" "$@"
