#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout. It builds
# the harness from source, keeping the Go build cache inside the checkout
# under .bench_build, then runs it with the arguments given.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench/e2e" && go build -o "$build/blast-e2e" .)
exec "$build/blast-e2e" "$@"
