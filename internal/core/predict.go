package core

import (
	"repro/internal/boolmin"
	"repro/internal/iostat"
)

// Analytic stats prediction: the Theorem 2.2/2.3 accounting for a
// selection, computed from the encoding alone without touching vector
// data. Every read path in index.go / synced.go reports exactly these
// numbers for the same logical operation (the fused evaluator's stats are
// analytic already), so a divergence between a measured iostat.Stats and
// the prediction here means the execution engine — not the workload —
// changed behavior. The audit plane (internal/audit) re-checks sampled
// live queries against these predictions.

// predictProgram turns a compiled program into the Stats an evaluation
// over n-bit dense operands would report.
func predictProgram(p *boolmin.Program, n int) iostat.Stats {
	v, w, o := p.PredictStats(wordsFor(n))
	return iostat.Stats{VectorsRead: v, WordsRead: w, BoolOps: o}
}

// PredictSelectionStats returns the exact Stats Eq (single value) or In
// (value list) would report for the current encoding. Values missing from
// the domain are dropped, mirroring ExprFor; an empty effective list
// predicts zero stats, matching the unknown-value fast path.
func (ix *Index[V]) PredictSelectionStats(values []V) iostat.Stats {
	return predictProgram(boolmin.Compile(ix.ExprFor(values)), ix.n)
}

// PredictIsNullStats returns the exact Stats IsNull would report: zero
// when no NULL code was ever allocated, otherwise the compiled NULL-code
// selection's analytic cost.
func (ix *Index[V]) PredictIsNullStats() iostat.Stats { return ix.predictIsNull(ix.n) }

// predictIsNull is the IsNull prediction for a logical length of n rows.
func (ix *Index[V]) predictIsNull(n int) iostat.Stats {
	if !ix.hasNullCode {
		return iostat.Stats{}
	}
	return predictProgram(boolmin.Compile(ix.nullExpr()), n)
}

// PredictGen stamps the basis of Index predictions: the code-space
// generation and the logical length. Any mutation that could change
// PredictSelectionStats for some value changes the stamp. (Plain indexes
// are not safe for concurrent mutation anyway; the stamp exists so the
// audit plane can tell "prediction basis moved" from "engine diverged".)
func (ix *Index[V]) PredictGen() uint64 {
	return ix.generation<<24 ^ uint64(ix.n)
}

// PredictSelectionStats is the Synced variant: one atomic snapshot load
// pins (encoding, base length, tail length) so the prediction is
// consistent even while appends and re-encoding flips race it. Matches
// Eq/In on the same snapshot: program stats over the base length plus the
// extendTail words for the tail.
func (s *Synced[V]) PredictSelectionStats(values []V) iostat.Stats {
	st := s.state.Load()
	return predictProgram(boolmin.Compile(st.ix.ExprFor(values)), st.ix.n+st.tailLen)
}

// PredictIsNullStats is PredictIsNullStats over one atomic Synced
// snapshot.
func (s *Synced[V]) PredictIsNullStats() iostat.Stats {
	st := s.state.Load()
	return st.ix.predictIsNull(st.ix.n + st.tailLen)
}

// PredictGen stamps the basis of Synced predictions: epoch (re-encoding
// flips), encGen (code-space changes), and the logical length (appends)
// all fold in.
func (s *Synced[V]) PredictGen() uint64 {
	st := s.state.Load()
	return st.epoch<<40 ^ st.encGen<<24 ^ uint64(st.ix.n+st.tailLen)
}
