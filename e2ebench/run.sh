#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload served-reads --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

# The benchmark module imports the repository module through a directory
# replacement (go.mod: replace idl => ../), so a tree holding only the
# benchmark fails here, before anything is measured.
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --workdir "$build/e2ebench-work" "$@"
