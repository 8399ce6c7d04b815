#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash bench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own state stay in
# .bench_build/ inside the checkout. The toolchain is the local one; no
# module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/ebiload" .)
exec "$out/ebiload" "$@"
