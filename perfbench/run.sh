#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see README.md). Everything the build and the run
# leave behind goes under .bench_build/ at the checkout root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# Keep the toolchain's caches and settings inside the checkout, and never
# reach for the network: the module has no dependencies outside the tree.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"
export GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
