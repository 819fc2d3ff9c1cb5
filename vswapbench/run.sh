#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash vswapbench/run.sh --workload pbzip2-sweep --seed 42 --seconds 30 --trace 0
#
# The build cache, binary and scratch files stay under .bench_build/ in
# the repository; nothing is fetched. See README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
# The traced run reads its CPU profiles with `go tool pprof`, so the
# benchmark keeps this environment too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	PPROF_TMPDIR="$out/gotmp" GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/vswapbench" && go build -o "$out/vswapbench" .)
cd "$root"
exec "$out/vswapbench" "$@"
