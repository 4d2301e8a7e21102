#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload inmem-2048 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, temp
# files, spill files, spans) stays under .bench_build/ in the checkout.
# The build needs no network: the module's only requirement is the
# repository itself, through a directory replace.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" \
	GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" XDG_CONFIG_HOME="${build}/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "${root}/bench" && go build -o "${build}/npdpbench" .)
exec "${build}/npdpbench" "$@"
