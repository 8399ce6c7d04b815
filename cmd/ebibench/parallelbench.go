package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// parallelRows scales the configured row count up to a multi-segment
// working set: below four segments the cost gate would (correctly) keep
// everything sequential and there would be nothing to measure.
func parallelRows(n int) int {
	if min := 4 * bitvec.SegmentBits; n < min {
		return min
	}
	return n
}

// parallelFixture builds the seq-vs-par measurement fixture: a Zipf
// distributed EBI over a multi-segment row space.
func parallelFixture(cfg config) (*core.Index[int64], int, error) {
	rows := parallelRows(cfg.n)
	r := rand.New(rand.NewSource(cfg.seed))
	ix, err := core.Build(workload.Zipf(r, rows, 50, 1.1), nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return ix, rows, nil
}

var parallelInVals = []int64{1, 3, 7, 12, 19, 25, 33, 48}

// runParallel is the `parallel` experiment: median/p99 of sequential vs
// segmented-parallel retrieval evaluation and segment popcounts, plus the
// pool's effective degree. On a single-core machine (GOMAXPROCS=1) the
// pool has no helpers and the parallel path measures pure segmentation
// overhead — expect parity, not speedup.
func runParallel(cfg config) error {
	ix, rows, err := parallelFixture(cfg)
	if err != nil {
		return err
	}
	degree := runtime.GOMAXPROCS(0)
	segs := bitvec.NumSegments(rows)
	fmt.Printf("segmented parallel execution: n=%d rows, %d segments of %d bits, GOMAXPROCS=%d, pool degree=%d\n\n",
		rows, segs, bitvec.SegmentBits, degree, parallel.Default().MaxDegree())

	var rows8, parRows *bitvec.Vector
	var seqSt, parSt iostat.Stats
	in8 := timeModes(
		func() { rows8, seqSt = ix.In(parallelInVals) },
		func() { parRows, parSt = ix.InParallel(parallelInVals, degree, nil) },
	)
	if seqSt != parSt {
		return fmt.Errorf("parallel stats %+v diverged from sequential %+v", parSt, seqSt)
	}
	if !parRows.Equal(rows8) {
		return fmt.Errorf("parallel rows diverged from sequential (%d vs %d set)", parRows.Count(), rows8.Count())
	}

	pop := timeModes(
		func() { rows8.Count() },
		func() { parallelPopcount(rows8, degree) },
	)
	if got, want := parallelPopcount(rows8, degree), rows8.Count(); got != want {
		return fmt.Errorf("parallel popcount %d != Count %d", got, want)
	}

	w := newTab()
	fmt.Fprintf(w, "workload\tmode\tmed\tp99\tspeedup(med)\t\n")
	fmt.Fprintf(w, "in8 δ=%d\tseq\t%s\t%s\t1.00x\t\n", len(parallelInVals), fmtNS(in8[0].med), fmtNS(in8[0].p99))
	fmt.Fprintf(w, "in8 δ=%d\tpar d=%d\t%s\t%s\t%.2fx\t\n", len(parallelInVals), degree, fmtNS(in8[1].med), fmtNS(in8[1].p99), speedup(in8[0].med, in8[1].med))
	fmt.Fprintf(w, "popcount\tseq\t%s\t%s\t1.00x\t\n", fmtNS(pop[0].med), fmtNS(pop[0].p99))
	fmt.Fprintf(w, "popcount\tpar d=%d\t%s\t%s\t%.2fx\t\n", degree, fmtNS(pop[1].med), fmtNS(pop[1].p99), speedup(pop[0].med, pop[1].med))
	return w.Flush()
}

// parallelPopcount counts set bits with a per-segment fork/join.
func parallelPopcount(v *bitvec.Vector, degree int) int {
	var total atomic.Int64
	parallel.Default().ForkJoin(v.Segments(), degree, func(seg int) {
		lo, hi := v.SegmentSpan(seg)
		total.Add(int64(v.PopcountRange(lo, hi)))
	})
	return int(total.Load())
}

func speedup(seqNS, parNS int64) float64 {
	if parNS == 0 {
		return 0
	}
	return float64(seqNS) / float64(parNS)
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
