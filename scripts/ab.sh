#!/usr/bin/env bash
# Same-host A/B of the ebiload benchmark: the binary built from BASE_REV
# against the one built from the working tree, run in alternating pairs.
# Run it from the root of a checkout:
#
#   bash scripts/ab.sh BASE_REV [--pairs N] [--workloads W1,W2] [--seconds S] [--seed S]
#   make ab BASE=BASE_REV
#
# scripts/fnalign.sh builds both binaries (.bench_build/fnalign-base and
# .bench_build/fnalign-head) and reports their function alignment. The
# script measures those two binaries with scripts/ab.go, which prints, for
# each workload and end-to-end metric, both sides' medians and quartiles,
# the relative change, how many pairs the change won, the failed
# operations, and whether the change is worse than the metric's
# BENCHMARK.json bound; see its comment for the defaults. The alignment
# report comes last. It is a report, not a gate: once both binaries build
# it exits 0. Each run's output stays in .bench_build/ab-runs/.
set -euo pipefail

base=${1:?usage: scripts/ab.sh BASE_REV [--pairs N] [--workloads W1,W2] [--seconds S] [--seed S]}
shift
report=$(bash scripts/fnalign.sh "$base")

echo "A/B $(git rev-parse --short "$base") (base) -> working tree (head)"
go run scripts/ab.go -base .bench_build/fnalign-base -head .bench_build/fnalign-head "$@"
echo
echo "$report"
