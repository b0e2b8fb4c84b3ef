#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from that root, passing every argument through. The
# Go build and module caches live in .bench_build/ too, so nothing is written
# outside the checkout; the first run compiles the standard library into it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
