package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// Prepared is a compiled selection: the reduced retrieval Boolean
// expression for an IN-list, bound to its index. Preparing once and
// evaluating many times matches the paper's deployment model — the
// predefined selections well-defined encodings are built for are known up
// front, so their reduced retrieval functions can be computed once ("be
// reduced by human experts, and be verified with assistance of
// computers", Section 3.2) and reused.
//
// A Prepared transparently recompiles itself when the index's code space
// or don't-care set has changed since compilation (domain expansion,
// widening, NULL-code allocation).
type Prepared[V comparable] struct {
	ix     *Index[V]
	values []V
	expr   boolmin.Expr
	prog   *boolmin.Program
	gen    uint64
}

// Prepare compiles the selection "A IN values".
func (ix *Index[V]) Prepare(values []V) *Prepared[V] {
	p := &Prepared[V]{ix: ix, values: append([]V(nil), values...)}
	p.compile()
	return p
}

func (p *Prepared[V]) compile() {
	p.expr = p.ix.ExprFor(p.values)
	p.prog = boolmin.Compile(p.expr)
	p.gen = p.ix.generation
}

// ensure recompiles when the index's code space changed underneath the
// prepared selection; otherwise the cached fused program is served as-is.
func (p *Prepared[V]) ensure() {
	if p.gen != p.ix.generation {
		mPreparedRecompiles.Inc()
		if lg := obs.DefaultLogger(); lg.Enabled(obs.LevelDebug) {
			lg.Debug("prepared selection recompiled",
				obs.Int("values", int64(len(p.values))),
				obs.Int("stale_generation", int64(p.gen)),
				obs.Int("generation", int64(p.ix.generation)))
		}
		p.compile()
		return
	}
	mProgCacheHits.Inc()
}

// Expr returns the compiled reduced expression (recompiling if stale).
func (p *Prepared[V]) Expr() boolmin.Expr {
	p.ensure()
	return p.expr
}

// AccessCost returns the number of bitmap vectors an evaluation reads —
// the paper's c_e for this selection.
func (p *Prepared[V]) AccessCost() int { return p.Expr().AccessCost() }

// Eval evaluates the compiled selection against the current index
// contents through the cached fused program.
func (p *Prepared[V]) Eval() (*bitvec.Vector, iostat.Stats) {
	rows := bitvec.New(p.ix.n)
	return rows, p.EvalInto(rows)
}

// EvalInto is Eval with a caller-provided destination (length Len(), fully
// overwritten): the zero-allocation steady-state path for repeated
// evaluation of a prepared IN-selection.
func (p *Prepared[V]) EvalInto(dst *bitvec.Vector) iostat.Stats {
	if dst.Len() != p.ix.n {
		panic(fmt.Sprintf("core: EvalInto destination has %d bits, index %d", dst.Len(), p.ix.n))
	}
	p.ensure()
	st := p.ix.evalProgramInto(p.prog, dst)
	p.ix.observeSelection(p.values, st)
	return st
}

// String renders the compiled expression in the paper's notation.
func (p *Prepared[V]) String() string { return p.Expr().String() }
