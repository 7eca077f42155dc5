#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags.
# Every build artefact (Go build cache, temp files, the binary) and every
# file a run writes stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$root"
go build -o "$out/ecnbench" ./benchmark
exec "$out/ecnbench" "$@"
