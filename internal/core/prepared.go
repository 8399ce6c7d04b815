package core

import (
	"fmt"
	"sync"

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
// has changed since compilation (domain expansion, widening, NULL-code
// allocation, re-encoding — including a Synced index's live flip, where
// the same values name different codes). It is safe for concurrent use
// when its index is.
type Prepared[V comparable] struct {
	view   func() *View[V]
	values []V

	mu   sync.Mutex
	gen  uint64 // code-space generation expr and prog were compiled for
	expr boolmin.Expr
	prog *boolmin.Program
}

// Prepare compiles the selection "A IN values".
func (ix *Index[V]) Prepare(values []V) *Prepared[V] {
	vw := ix.View() // a plain index's view follows it
	return prepare(func() *View[V] { return vw }, values)
}

// Prepare compiles the selection "A IN values" against the live state.
func (s *Synced[V]) Prepare(values []V) *Prepared[V] { return prepare(s.View, values) }

func prepare[V comparable](view func() *View[V], values []V) *Prepared[V] {
	p := &Prepared[V]{view: view, values: append([]V(nil), values...)}
	p.compiled(view())
	return p
}

// compiled returns the selection's expression and program for vw's code
// space, recompiling when the code space changed since the last
// compilation. The returns are immutable, so a concurrent recompile for
// another view never disturbs an evaluation in flight.
func (p *Prepared[V]) compiled(vw *View[V]) (boolmin.Expr, *boolmin.Program) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gen := vw.ix.progs.gen
	switch {
	case p.prog == nil: // first compilation
	case p.gen == gen:
		mProgCacheHits.Inc()
		return p.expr, p.prog
	default:
		mPreparedRecompiles.Inc()
		if lg := obs.DefaultLogger(); lg.Enabled(obs.LevelDebug) {
			lg.Debug("prepared selection recompiled",
				obs.Int("values", int64(len(p.values))),
				obs.Int("stale_generation", int64(p.gen)),
				obs.Int("generation", int64(gen)))
		}
	}
	p.expr = vw.ix.ExprFor(p.values)
	p.prog = boolmin.Compile(p.expr)
	p.gen = gen
	return p.expr, p.prog
}

// Expr returns the compiled reduced expression (recompiling if stale).
func (p *Prepared[V]) Expr() boolmin.Expr {
	e, _ := p.compiled(p.view())
	return e
}

// AccessCost returns the number of bitmap vectors an evaluation reads —
// the paper's c_e for this selection.
func (p *Prepared[V]) AccessCost() int { return p.Expr().AccessCost() }

// Eval evaluates the compiled selection against the current index
// contents through the cached fused program.
func (p *Prepared[V]) Eval() (*bitvec.Vector, iostat.Stats) {
	vw := p.view()
	_, prog := p.compiled(vw)
	return vw.sel(p.values, prog, 1, nil)
}

// EvalInto is Eval with a caller-provided destination (length Len(), fully
// overwritten): the zero-allocation steady-state path for repeated
// evaluation of a prepared IN-selection.
func (p *Prepared[V]) EvalInto(dst *bitvec.Vector) iostat.Stats {
	vw := p.view()
	if dst.Len() != vw.Len() {
		panic(fmt.Sprintf("core: EvalInto destination has %d bits, index %d", dst.Len(), vw.Len()))
	}
	_, prog := p.compiled(vw)
	st := vw.evalInto(prog, dst)
	vw.ix.observeSelection(p.values, st)
	return st
}

// String renders the compiled expression in the paper's notation.
func (p *Prepared[V]) String() string { return p.Expr().String() }
