#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (under the current
# directory, which must be the root of a checkout) and runs it with the given
# arguments. Everything the Go toolchain writes stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/neurdb-benchmark" .
exec "$out/neurdb-benchmark" -workdir "$out" "$@"
