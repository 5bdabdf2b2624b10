#!/usr/bin/env bash
# The benchmark's one command: build flowbench from this directory's module
# into the checkout's .bench_build, then run it from the checkout root with
# the arguments given. Everything Go writes (build cache, module cache,
# binaries) stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$out/bin/flowbench" ./flowbench)
cd "$root"
exec "$out/bin/flowbench" "$@"
