package core

import (
	"cmp"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// View is one immutable read view of an encoded bitmap index: a base
// Index plus an append tail of codes for rows past the base's vectors.
// Every selection and prediction is implemented once here; Index and
// Synced read through it. A plain Index is a view with an empty tail (it
// is mutated in place, so its view follows it), and a Synced index
// publishes a fresh view at every write.
//
// The tail is evaluated with the same compiled program as the base
// (boolmin.Program.Selects), and the Stats a view reports are exactly
// those of a plain Index holding the same rows: the fused kernel's
// accounting is analytic — VectorsRead and BoolOps depend only on the
// program, WordsRead is VectorsRead dense words — so the tail only adds
// VectorsRead * (words(Len) - words(base length)).
type View[V comparable] struct {
	ix *Index[V]
	// tail holds one k-bit code per row appended since ix was built, in
	// append order. Its backing array may be extended in place after the
	// view is published; the view reads only its own length.
	tail []uint64
	// epoch counts re-encoding flips of a Synced index (0 for a plain
	// Index); it changes only when the live code assignment is swapped.
	epoch uint64
}

// View returns the index as a read view with an empty tail.
func (ix *Index[V]) View() *View[V] { return &View[V]{ix: ix} }

// Len returns the view's row count: the base rows plus the tail.
func (v *View[V]) Len() int { return v.ix.n + len(v.tail) }

// Values returns the domain values ordered by code.
func (v *View[V]) Values() []V { return v.ix.Values() }

// wordsFor returns the dense word count of an n-bit vector, mirroring
// bitvec's layout: the analytic WordsRead unit.
func wordsFor(n int) int { return (n + 63) / 64 }

// extend grows a base-length result across the tail, setting the appended
// rows whose code match accepts, and adds the tail's dense words for each
// vector the evaluation read. BoolOps and VectorsRead are
// length-independent.
func (v *View[V]) extend(rows *bitvec.Vector, st *iostat.Stats, match func(code uint32) bool) {
	if len(v.tail) == 0 {
		return
	}
	n0 := v.ix.n
	rows.Grow(v.Len())
	for i, c := range v.tail {
		if match(uint32(c)) {
			rows.Set(n0 + i)
		}
	}
	st.WordsRead += st.VectorsRead * (wordsFor(v.Len()) - wordsFor(n0))
}

// eval runs a compiled program over the view into a fresh row set,
// segmented on up to degree executors when degree > 1 (sp, when non-nil,
// parents the worker spans).
func (v *View[V]) eval(p *boolmin.Program, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	rows := bitvec.New(v.ix.n)
	st := v.ix.run(p, rows, degree, sp)
	v.extend(rows, &st, p.Selects)
	return rows, st
}

// evalInto is eval into a caller-provided row set of Len() bits, fully
// overwritten; with an empty tail it allocates nothing.
func (v *View[V]) evalInto(p *boolmin.Program, dst *bitvec.Vector) iostat.Stats {
	if len(v.tail) == 0 {
		return v.ix.run(p, dst, 1, nil)
	}
	rows, st := v.eval(p, 1, nil)
	dst.CopyFrom(rows)
	return st
}

// sel evaluates a value selection's compiled program and reports the
// values to the selection observer.
func (v *View[V]) sel(values []V, p *boolmin.Program, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	rows, st := v.eval(p, degree, sp)
	v.ix.observeSelection(values, st)
	return rows, st
}

// Eq returns the rows where the attribute equals val. The cost is the
// full min-term: k vectors (c_e's single-value case), possibly fewer when
// don't-care codes let the min-term shed literals. The compiled program
// is the code space's cached reduction of the one-code set.
func (v *View[V]) Eq(val V) (*bitvec.Vector, iostat.Stats) {
	code, ok := v.ix.mapping.CodeOf(val)
	if !ok {
		return bitvec.New(v.Len()), iostat.Stats{}
	}
	return v.sel([]V{val}, v.ix.reduce([]uint32{code}).prog, 1, nil)
}

// EqInto is Eq with a caller-provided destination: dst (length Len(),
// fully overwritten) receives the rows where the attribute equals val.
// With an empty tail and the value's program memoized it performs zero
// allocations, which is the steady-state point-query path.
func (v *View[V]) EqInto(val V, dst *bitvec.Vector) iostat.Stats {
	if dst.Len() != v.Len() {
		panic(fmt.Sprintf("core: EqInto destination has %d bits, index %d", dst.Len(), v.Len()))
	}
	code, ok := v.ix.mapping.CodeOf(val)
	if !ok {
		dst.Reset()
		return iostat.Stats{}
	}
	st := v.evalInto(v.ix.reduce([]uint32{code}).prog, dst)
	v.ix.observeSelection([]V{val}, st)
	return st
}

// In returns the rows where the attribute is in the value list, evaluating
// the reduced retrieval expression — the paper's range-search path where
// c_e <= ceil(log2 m) regardless of the list width δ. The list is reduced
// once per code set and code space: permutations, repeats and values
// outside the domain share one cached reduction.
func (v *View[V]) In(values []V) (*bitvec.Vector, iostat.Stats) {
	return v.InParallel(values, 1, nil)
}

// InParallel is In with segmented parallel evaluation: the fused kernel's
// work fans out across fixed 64Ki-bit segments on up to degree executors
// of the shared worker pool, each recording a trace span under sp (nil for
// none); degree <= 1 evaluates sequentially. Rows are bit-for-bit those of
// the sequential path and Stats exactly equal — the paper's Section 3
// cost model counts vectors read, which segmentation does not change (see
// docs/parallelism.md).
func (v *View[V]) InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	return v.sel(values, v.ix.selection(values).prog, degree, sp)
}

// Range returns the rows where lo <= value <= hi, segmented on up to
// degree executors when degree > 1 (as InParallel). While the view's code
// space is ordered (its values ascend with their codes, the paper's
// total-order preserving encoding of Section 2.3) the values in range hold
// one code interval, and Range evaluates the interval's aligned-subcube
// cover: at most k vectors, no minimization. Otherwise it selects the
// mapped values in range as an IN list through the code-set cache. Either
// way the observer sees the values in range.
func Range[V cmp.Ordered](v *View[V], lo, hi V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	values, p := rangeSelection(v.ix, lo, hi)
	return v.sel(values, p, degree, sp)
}

// NotIn returns existing, non-NULL rows outside the value list. Because
// void is 0 and never part of a value code set, the complement must
// explicitly exclude void and NULL codes. The complement is what the
// reduced expression actually selects, so that is what the observer (and
// any re-encoding workload built from it) records.
func (v *View[V]) NotIn(values []V) (*bitvec.Vector, iostat.Stats) {
	codes, included := v.ix.complement(values)
	return v.sel(included, v.ix.reduce(codes).prog, 1, nil)
}

// IsNull returns the NULL rows.
func (v *View[V]) IsNull() (*bitvec.Vector, iostat.Stats) {
	if !v.ix.hasNullCode {
		return bitvec.New(v.Len()), iostat.Stats{}
	}
	return v.eval(v.ix.reduce([]uint32{v.ix.nullCode}).prog, 1, nil)
}

// Existing returns all non-void, non-NULL rows. With the void-zero
// reservation it needs no Boolean minimization at all: a row exists iff
// its code is nonzero (the OR of all vectors) and is not the NULL code.
// The NULL rows come from IsNull's cached program; its vectors are
// charged only where the OR pass has not read them already, that is
// without the reservation.
func (v *View[V]) Existing() (*bitvec.Vector, iostat.Stats) {
	ix := v.ix
	var st iostat.Stats
	acc := bitvec.New(ix.n)
	if ix.reserveVoid {
		for _, vec := range ix.vectors {
			st.VectorsRead++
			st.WordsRead += vec.Words()
			st.BoolOps++
			acc.Or(vec)
		}
	} else {
		// No deletions are possible without the reservation; every row
		// exists unless NULL.
		acc.Fill()
	}
	if ix.hasNullCode {
		nulls := bitvec.New(ix.n)
		res := ix.reduce([]uint32{ix.nullCode}).prog.EvalInto(nulls, ix.srcs)
		if !ix.reserveVoid {
			st.VectorsRead += res.VectorsRead
			st.WordsRead += res.WordsRead
		}
		st.BoolOps += res.Ops + 1
		acc.AndNot(nulls)
	}
	v.extend(acc, &st, ix.exists)
	return acc, st
}

// Analytic stats prediction: the Theorem 2.2/2.3 accounting for a
// selection, computed from the encoding alone without touching vector
// data. Every read above reports exactly these numbers for the same
// logical operation (the fused evaluator's stats are analytic already), so
// a divergence between a measured iostat.Stats and the prediction means
// the execution engine — not the workload — changed behavior. The audit
// plane (internal/audit) re-checks sampled live queries against them.

// predictProgram turns a compiled program into the Stats an evaluation
// over n-bit dense operands would report.
func predictProgram(p *boolmin.Program, n int) iostat.Stats {
	v, w, o := p.PredictStats(wordsFor(n))
	return iostat.Stats{VectorsRead: v, WordsRead: w, BoolOps: o}
}

// PredictSelectionStats returns the exact Stats Eq (single value) or In
// (value list) would report on this view. Values missing from the domain
// are dropped, mirroring ExprFor; an empty effective list predicts zero
// stats, matching the unknown-value fast path.
func (v *View[V]) PredictSelectionStats(values []V) iostat.Stats {
	return predictProgram(v.ix.selection(values).prog, v.Len())
}

// PredictRange returns the exact Stats Range(v, lo, hi, ...) would report.
func PredictRange[V cmp.Ordered](v *View[V], lo, hi V) iostat.Stats {
	_, p := rangeSelection(v.ix, lo, hi)
	return predictProgram(p, v.Len())
}

// PredictIsNullStats returns the exact Stats IsNull would report: zero
// when no NULL code was ever allocated, otherwise the compiled NULL-code
// selection's analytic cost.
func (v *View[V]) PredictIsNullStats() iostat.Stats {
	if !v.ix.hasNullCode {
		return iostat.Stats{}
	}
	return predictProgram(v.ix.reduce([]uint32{v.ix.nullCode}).prog, v.Len())
}

// PredictGen stamps the basis of the view's predictions: the re-encoding
// epoch, the code-space generation, the row count and whether any row is
// deleted (an ordered range's cover widens across the void code only
// while none is) all fold in, so any change that could move a prediction
// changes the stamp.
func (v *View[V]) PredictGen() uint64 {
	g := v.epoch<<40 ^ v.ix.cs.gen<<24 ^ uint64(v.Len())
	if v.ix.deleted > 0 {
		g ^= 1 << 63
	}
	return g
}

// The read methods of Index are the view's. A Synced index is read through
// its live snapshot (Synced.View); In is the one read it forwards.

// Eq returns the rows where the attribute equals v (see View.Eq).
func (ix *Index[V]) Eq(v V) (*bitvec.Vector, iostat.Stats) { return ix.View().Eq(v) }

// EqInto is Eq into a caller-provided destination of Len() bits (see
// View.EqInto); it panics on any other length.
func (ix *Index[V]) EqInto(v V, dst *bitvec.Vector) iostat.Stats { return ix.View().EqInto(v, dst) }

// In returns the rows where the attribute is in the value list.
func (ix *Index[V]) In(values []V) (*bitvec.Vector, iostat.Stats) { return ix.View().In(values) }

// InParallel is In with segmented parallel evaluation (see
// View.InParallel).
func (ix *Index[V]) InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	return ix.View().InParallel(values, degree, sp)
}

// NotIn returns existing, non-NULL rows outside the value list.
func (ix *Index[V]) NotIn(values []V) (*bitvec.Vector, iostat.Stats) { return ix.View().NotIn(values) }

// IsNull returns the NULL rows.
func (ix *Index[V]) IsNull() (*bitvec.Vector, iostat.Stats) { return ix.View().IsNull() }

// Existing returns all non-void, non-NULL rows.
func (ix *Index[V]) Existing() (*bitvec.Vector, iostat.Stats) { return ix.View().Existing() }

// View returns the live snapshot. It never changes once loaded, so a
// caller that reads through one view sees exactly one state of the index
// however appends and re-encodings race it.
func (s *Synced[V]) View() *View[V] { return s.state.Load() }

// In returns rows matching the value list on the live snapshot.
func (s *Synced[V]) In(values []V) (*bitvec.Vector, iostat.Stats) { return s.View().In(values) }
