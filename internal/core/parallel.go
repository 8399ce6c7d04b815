package core

import (
	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Parallel evaluation: the same retrieval-function machinery as In, but
// the fused kernel's work fans out across fixed 64Ki-bit segments on the
// shared worker pool. The returned rows are bit-for-bit identical to the
// sequential path and the iostat.Stats are exactly equal — the paper's
// Section 3 cost model counts vectors read, which segmentation does not
// change, so parallelism is invisible to the cost accounting (see
// docs/parallelism.md).

// evalParallel runs a compiled program with up to degree concurrent
// executors (further bounded by the pool to min(GOMAXPROCS, segments)),
// nesting per-worker trace spans under sp when it is non-nil. degree <= 1
// is the sequential evaluator's exact code path; both run the same fused
// per-segment kernel, so rows and stats are identical either way.
func (ix *Index[V]) evalParallel(p *boolmin.Program, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	if degree <= 1 {
		return ix.evalProgram(p)
	}
	mEvals.Inc()
	if ix.reserveVoid {
		mVoidSkips.Inc()
	}
	mParallelEvals.Inc()
	dst := bitvec.New(ix.n)
	res := p.EvalParallelInto(dst, ix.vectors, parallel.Default(), degree, sp)
	return dst, iostat.Stats{
		VectorsRead: res.VectorsRead,
		WordsRead:   res.WordsRead,
		BoolOps:     res.Ops,
	}
}

// InParallel is In with segmented parallel evaluation on up to degree
// executors, each recording a trace span under sp (nil for none). degree
// <= 1 evaluates sequentially. Like Synced reads it bypasses the
// single-value expression cache, so a point selection minimizes afresh.
func (ix *Index[V]) InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	rows, st := ix.evalParallel(boolmin.Compile(ix.ExprFor(values)), degree, sp)
	ix.observeSelection(values, st)
	return rows, st
}

// InParallel evaluates a value-list selection with segmented parallelism
// against an atomically loaded epoch snapshot: the fork/join runs
// entirely over the immutable base vectors, then the result is extended
// across the snapshot's append tail, so concurrent appends (or a live
// re-encoding flip) never observe a torn evaluation and never block it.
// sp and degree are as for Index.InParallel.
func (s *Synced[V]) InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	st := s.state.Load()
	ix := st.ix
	rows, stats := ix.evalParallel(boolmin.Compile(ix.ExprFor(values)), degree, sp)
	codes := make(map[uint32]bool, len(values))
	for _, v := range values {
		if c, ok := ix.mapping.CodeOf(v); ok {
			codes[c] = true
		}
	}
	extendTail(st, rows, &stats, func(c uint32) bool { return codes[c] })
	ix.observeSelection(values, stats)
	return rows, stats
}
