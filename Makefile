# Convenience targets; the module is stdlib-only, so plain go commands work.

.PHONY: all build vet test race bench bench-eval bench-obs bench-reorder fnalign ab fuzz experiments examples serve-demo drift-demo flight-demo audit-demo

all: build vet test race

build:
	go build ./...

vet:
	go vet ./...

# bench/ is its own module, which ./... skips.
test:
	go test ./...
	cd bench && go vet ./... && go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Fused single-pass evaluation vs the multi-pass baseline (see
# docs/evaluation.md).
bench-eval:
	go run ./cmd/ebibench -n 200000 eval

# Telemetry overhead microbenchmarks plus the zero-alloc guard for the
# disabled paths (see docs/observability.md, "Resource attribution").
bench-obs:
	go test ./internal/obs/ -run TestDisabledPathZeroAllocs -bench . -benchmem

# Row-reordering pass: per-heuristic WAH ratios and streamed-eval
# latency against the unsorted baseline (see docs/sorting.md).
bench-reorder:
	go run ./cmd/ebibench -n 200000 reorder

# Which hot-package functions moved their address mod 64 between the
# ebiload binary of BASE and of the working tree: a code-layout shift can
# move benchmark numbers with no code change (see ROADMAP item 1). A
# report, not a gate.
fnalign:
	bash scripts/fnalign.sh $(BASE)

# Same-host A/B of ebiload, BASE against the working tree: 10 alternating
# pairs on every workload, per-metric medians, quartiles, pairs won and
# bound check, then the fnalign report (see ROADMAP item 1). A report,
# not a gate; pass --pairs/--workloads/--seconds/--seed by running
# scripts/ab.sh directly.
ab:
	bash scripts/ab.sh $(BASE)

# Short fuzz pass over every fuzz target (requires Go >= 1.18).
fuzz:
	go test -fuzz FuzzLoad -fuzztime 20s ./internal/core/
	go test -fuzz FuzzBuildQueryDelete -fuzztime 20s ./internal/core/
	go test -fuzz FuzzRoundTrip -fuzztime 15s ./internal/compress/
	go test -fuzz FuzzBinops -fuzztime 15s ./internal/compress/
	go test -fuzz FuzzMinimize -fuzztime 15s ./internal/boolmin/
	go test -fuzz FuzzRetrievalFunction -fuzztime 10s ./internal/boolmin/
	go test -fuzz FuzzFusedEval -fuzztime 20s ./internal/boolmin/
	go test -fuzz FuzzIntervalCover -fuzztime 10s ./internal/boolmin/
	go test -fuzz FuzzSegmentKernels -fuzztime 15s ./internal/bitvec/
	go test -fuzz FuzzSwapCatchUp -fuzztime 20s ./internal/core/
	go test -fuzz FuzzReorderPermutation -fuzztime 15s ./internal/reorder/

# Regenerate every figure/table of the paper into the committed
# transcript. A speed claim comes from `make ab` (ebiload, bench/), not
# from these timings.
experiments:
	go run ./cmd/ebibench -n 200000 all > docs/ebibench_all.txt

# Build a small index and serve /metrics, /debug/pprof and /traces for
# manual inspection (see docs/observability.md).
serve-demo:
	go run ./cmd/ebicli serve -addr :8391

# Live workload profiling + encoding-drift watcher: the scripted
# two-phase demo, then the served variant with the watcher planning a
# re-encoding of the live demo workload every 5s on /debug/drift (see
# docs/observability.md, "Workload profiling & encoding drift").
drift-demo:
	go run ./cmd/ebibench -n 50000 drift
	go run ./cmd/ebicli serve -addr :8391 -drift 5s

# Flight recorder: serve the demo workload with a 1s time-series ring
# (/debug/timeseries), the drift watcher, and incident bundles armed in
# /tmp/ebi-incidents (/debug/incidents; inspect offline with
# `go run ./cmd/ebicli incidents -dir /tmp/ebi-incidents`). See
# docs/observability.md, "Flight recorder".
flight-demo:
	go run ./cmd/ebicli serve -addr :8391 -drift 5s -scrape 1s -incidents /tmp/ebi-incidents

# Audit plane: the scripted clean + fault-injection experiments (the
# fault run exits non-zero on detection — that is the expected outcome),
# then the served demo with every execution sampled into /debug/audit
# (see docs/observability.md, "Audit plane").
audit-demo:
	go run ./cmd/ebibench -n 50000 audit
	go run ./cmd/ebibench -n 50000 -fault audit; test $$? -ne 0
	go run ./cmd/ebicli serve -addr :8391 -drift 5s -apply -scrape 1s -incidents /tmp/ebi-incidents -audit 1.0

examples:
	go run ./examples/quickstart
	go run ./examples/starschema
	go run ./examples/rangescan
	go run ./examples/groupset
	go run ./examples/warehouse
	go run ./examples/olap
