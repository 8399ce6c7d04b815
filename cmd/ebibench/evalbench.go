package main

import (
	"fmt"
	"runtime"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/parallel"
)

// The `eval` experiment measures what the fused single-pass kernel buys
// over the multi-pass baseline on the same reduced retrieval expressions:
//
//   - baseline:  boolmin.EvalVectors — per-cube sweeps with materialized
//     NOT vectors and a scratch accumulator (the pre-fusion evaluator).
//   - fused:     a compiled Program evaluated into a reused destination —
//     one streaming pass, zero steady-state allocations.
//   - fused-par: the same program through the segmented fork/join path.
//
// The -wah variants run both evaluators over WAH-compressed operands: the
// baseline must decompress every operand first, the fused kernel streams
// compressed words directly. Every route's rows and stats are checked
// against the baseline's on every workload; a divergence fails the run.

// evalRow is one measured (workload, mode) cell.
type evalRow struct {
	workload string
	mode     string
	med, p99 int64
	ratio    float64 // med / baseline med (same workload); 0 for the baseline itself
}

// evalWorkloads returns the selection shapes: a point query (single cube
// after minimization) and two multi-cube shapes where fusion pays —
// the 8-value IN list and a wide 25-value discrete range.
func evalWorkloads(ix *core.Index[int64]) []struct {
	name string
	vals []int64
} {
	rangeVals := make([]int64, 0, 25)
	for _, v := range ix.Values() {
		if v >= 0 && v < 25 {
			rangeVals = append(rangeVals, v)
		}
	}
	return []struct {
		name string
		vals []int64
	}{
		{"eq", []int64{7}},
		{"in8", parallelInVals},
		{"range25", rangeVals},
	}
}

// evalMeasurements builds the fixture and times every route on every
// workload, verifying row and stats parity along the way.
func evalMeasurements(cfg config) ([]evalRow, error) {
	ix, rows, err := parallelFixture(cfg)
	if err != nil {
		return nil, err
	}
	degree := runtime.GOMAXPROCS(0)
	k := ix.K()
	vecs := make([]*bitvec.Vector, k)
	comp := make([]*compress.Vector, k)
	for i := range vecs {
		vecs[i] = ix.Vector(i)
		comp[i] = compress.Compress(vecs[i])
	}
	srcs := make([]bitvec.WordSource, k)
	for i, v := range vecs {
		srcs[i] = v
	}
	statsOf := func(res boolmin.EvalResult) iostat.Stats {
		return iostat.Stats{VectorsRead: res.VectorsRead, WordsRead: res.WordsRead, BoolOps: res.Ops}
	}

	var out []evalRow
	for _, wl := range evalWorkloads(ix) {
		e := ix.ExprFor(wl.vals)
		prog := boolmin.Compile(e)
		// Each route writes rows of its own, so a route that leaves words
		// unwritten cannot pass on another route's result.
		var want, wahBaseRows *bitvec.Vector
		fusedDst, parDst, wahDst := bitvec.New(rows), bitvec.New(rows), bitvec.New(rows)

		var baseSt, fusedSt, parSt, wahBaseSt, wahFusedSt iostat.Stats
		t := timeModes(
			func() {
				res := boolmin.EvalVectors(e, vecs)
				want, baseSt = res.Rows, statsOf(res)
			},
			func() { fusedSt = statsOf(prog.EvalInto(fusedDst, srcs)) },
			func() { parSt = statsOf(prog.EvalParallelInto(parDst, vecs, parallel.Default(), degree, nil)) },
			// WAH routes: the baseline pays Decompress per used operand,
			// the fused kernel streams. Decompression is untracked
			// I/O-wise, so the baseline row reports the dense evaluation's
			// stats.
			func() {
				dense := make([]*bitvec.Vector, k)
				used := e.Vars()
				for i, cv := range comp {
					if used&(1<<uint(i)) != 0 {
						dense[i] = cv.Decompress()
					} else {
						dense[i] = vecs[i] // unused: never read
					}
				}
				res := boolmin.EvalVectors(e, dense)
				wahBaseRows, wahBaseSt = res.Rows, statsOf(res)
			},
			func() {
				streams := make([]bitvec.WordSource, k)
				for i, cv := range comp {
					streams[i] = cv.Stream()
				}
				wahFusedSt = statsOf(prog.EvalInto(wahDst, streams))
			},
		)
		base, fused, par, wahBase, wahFused := t[0], t[1], t[2], t[3], t[4]

		for _, route := range []struct {
			name string
			st   iostat.Stats
			rows *bitvec.Vector
		}{
			{"fused", fusedSt, fusedDst}, {"fused-par", parSt, parDst},
			{"wah-baseline", wahBaseSt, wahBaseRows}, {"wah-fused", wahFusedSt, wahDst},
		} {
			if route.st != baseSt {
				return nil, fmt.Errorf("eval/%s: %s stats %+v diverged from baseline %+v",
					wl.name, route.name, route.st, baseSt)
			}
			if !route.rows.Equal(want) {
				return nil, fmt.Errorf("eval/%s: %s rows diverged from baseline (%d vs %d set)",
					wl.name, route.name, route.rows.Count(), want.Count())
			}
		}

		out = append(out,
			evalRow{wl.name, "baseline", base.med, base.p99, 0},
			evalRow{wl.name, "fused", fused.med, fused.p99, ratioOf(fused.med, base.med)},
			evalRow{wl.name, fmt.Sprintf("fused-par d=%d", degree), par.med, par.p99, ratioOf(par.med, base.med)},
			evalRow{wl.name + "-wah", "baseline", wahBase.med, wahBase.p99, 0},
			evalRow{wl.name + "-wah", "fused", wahFused.med, wahFused.p99, ratioOf(wahFused.med, wahBase.med)},
		)
	}
	return out, nil
}

// ratioOf returns med/baseMed — below 1.0 means the mode is faster than
// its workload's baseline.
func ratioOf(med, baseMed int64) float64 {
	if baseMed == 0 {
		return 0
	}
	return float64(med) / float64(baseMed)
}

// runEval is the `eval` experiment entry point.
func runEval(cfg config) error {
	rowsN := parallelRows(cfg.n)
	fmt.Printf("fused single-pass evaluation: n=%d rows, GOMAXPROCS=%d (speedup = baseline med / mode med)\n\n",
		rowsN, runtime.GOMAXPROCS(0))
	rows, err := evalMeasurements(cfg)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintf(w, "workload\tmode\tmed\tp99\tspeedup(med)\t\n")
	for _, r := range rows {
		sp := "1.00x"
		if r.ratio > 0 {
			sp = fmt.Sprintf("%.2fx", 1/r.ratio)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t\n", r.workload, r.mode, fmtNS(r.med), fmtNS(r.p99), sp)
	}
	return w.Flush()
}
