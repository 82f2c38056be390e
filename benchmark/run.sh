#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the
# build and the run write — Go build cache, binaries, data dirs,
# trace.json — stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -root "$root" "$@"
