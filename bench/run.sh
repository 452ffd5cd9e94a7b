#!/usr/bin/env bash
# The one benchmark command: builds the bench driver from source into
# .bench_build/ at the root of the checkout and runs it there. Every byte
# the build and the run write (Go build cache, binaries, dlmond state
# directories, trace files) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache" # never filled: no dependencies
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
(cd bench && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
