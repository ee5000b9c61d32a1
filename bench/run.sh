#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the runs leave behind goes under .bench_build/:
# the Go build cache, the binary, reference scores, result and trace files.
#
#   bash bench/run.sh --workload social-shm --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare BASE CHANGE   # result files or directories
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
# Keep the toolchain's caches, temporary files and config inside the
# checkout, and never reach for the network: the module has no
# dependencies outside the repo.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
