#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Everything it writes (build cache, binary, stores) stays under
# .bench_build/ at the root of the checkout.
#
#   bash pipebench/run.sh --workload records --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# The go command's caches, temporary files, and its config and telemetry
# directory (under XDG_CONFIG_HOME) all point into the checkout; the build
# uses only the local toolchain and never the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
# The benchmark measures the optimized eBPF tier; a tier forced through
# the environment would silently measure another engine.
unset VNT_EBPF_TIER
(cd "$root/pipebench" && go build -o "$out/pipebench" .) >&2
cd "$root"
exec "$out/pipebench" --workdir "$out" "$@"
