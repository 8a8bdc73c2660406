#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#	bash e2ebench/run.sh --workload live --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, store directories,
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" -workdir "$out" "$@"
