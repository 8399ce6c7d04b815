// Fused single-pass expression evaluation. EvalVectors executes a reduced
// retrieval expression as O(cubes x literals) full-vector sweeps,
// materializing shared NOT vectors and a per-cube scratch accumulator; for
// a multi-cube IN/range expression the memory traffic is a multiple of the
// operand bits actually read. Compile turns the expression into a compact
// Program once; Program.EvalInto then makes a single streaming pass over
// the operands, computing for every word-block w
//
//	acc[w] = OR over cubes of (AND over literals of (word or ^word))
//
// with no intermediate vectors, no NOT materialization, and zero
// steady-state allocations (scratch blocks come from a sync.Pool, compiled
// programs are cached by the callers). Operands arrive through the
// bitvec.WordSource contract, so a WAH-compressed vector streams its words
// group-by-group (internal/compress) instead of decompressing first.
//
// The iostat accounting is computed analytically from the program and is
// exactly the sequential baseline's: identical VectorsRead, WordsRead, and
// Ops as EvalVectors would report, block structure notwithstanding.
package boolmin

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/parallel"
)

var (
	mFusedCompiles = obs.Default().Counter("ebi_fused_programs_compiled_total",
		"Retrieval expressions compiled into fused evaluation programs.")
	mFusedEvals = obs.Default().Counter("ebi_fused_evals_total",
		"Fused single-pass expression evaluations executed (sequential and per-segment parallel).")
)

// fusedBlockWords is the kernel's block size in 64-bit words: 2KiB per
// operand per block, so scratch + accumulator + a handful of operands stay
// L1-resident while still amortizing the per-block dispatch.
const fusedBlockWords = 256

// progLit is one literal of a compiled cube: operand slot and polarity.
type progLit struct {
	v   uint8
	neg bool
}

// Program is a reduced retrieval expression compiled for fused evaluation.
// Compile once, evaluate many times; a Program is immutable and safe for
// concurrent use (every evaluation's mutable state is per-call).
type Program struct {
	k     int
	cubes [][]progLit // per cube, its literals in variable order

	constFalse bool // no cubes: empty row set, zero stats
	constTrue  bool // a no-literal cube: full row set (after up-front reads)

	// Analytic accounting, identical to EvalVectors' counting: vars and
	// vectorsRead cover every cube (the baseline charges its up-front
	// vector reads before evaluating), ops replays the baseline's lazy
	// negation + per-cube AND/OR sequence, stopping at a constant-true
	// cube exactly as the sequential early return does.
	vars        uint32
	vectorsRead int
	ops         int
}

// Compile builds the fused evaluation program for an expression.
func Compile(e Expr) *Program {
	mFusedCompiles.Inc()
	p := &Program{k: e.K}
	if len(e.Cubes) == 0 {
		p.constFalse = true
		return p
	}
	p.vars = e.Vars()
	p.vectorsRead = bits.OnesCount32(p.vars)

	negSeen := uint32(0)
	for _, c := range e.Cubes {
		var lits []progLit
		for i := 0; i < e.K; i++ {
			bit := uint32(1) << uint(i)
			if c.Mask&bit != 0 {
				continue
			}
			neg := c.Value&bit == 0
			if neg && negSeen&bit == 0 {
				negSeen |= bit
				p.ops++ // baseline materializes NOT B_i once, on first use
			}
			if len(lits) > 0 {
				p.ops++ // AND with the cube's running product
			}
			lits = append(lits, progLit{v: uint8(i), neg: neg})
		}
		if len(lits) == 0 {
			// Constant-true cube: the baseline fills and returns without
			// charging this cube's OR or evaluating later cubes.
			p.constTrue = true
			p.cubes = nil
			return p
		}
		p.ops++ // OR into the accumulator
		p.cubes = append(p.cubes, lits)
	}
	return p
}

// Vars returns the referenced-variable bitmask (bit i = operand i read).
func (p *Program) Vars() uint32 { return p.vars }

// AccessCost returns the number of distinct operands the program reads —
// the paper's c_e.
func (p *Program) AccessCost() int { return p.vectorsRead }

// PredictStats returns the analytic accounting an EvalInto over dense
// operands of wordsPerVector words each would report — the Theorem
// 2.2/2.3 prediction for this retrieval function, computable without
// touching any data. A constant-false program reads nothing. WAH-streamed
// operands report their compressed word counts and are therefore outside
// this prediction.
func (p *Program) PredictStats(wordsPerVector int) (vectorsRead, wordsRead, ops int) {
	if p.constFalse {
		return 0, 0, 0
	}
	return p.vectorsRead, p.vectorsRead * wordsPerVector, p.ops
}

// scratch is one reusable kernel block.
type scratch struct{ buf [fusedBlockWords]uint64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// EvalInto evaluates the program over the operand sources into dst, which
// must be sized to the operands' length (it is fully overwritten). It
// returns the same EvalResult — bit-for-bit rows and exactly equal
// accounting — as EvalVectors over the dense equivalents of srcs, with
// zero allocations in the steady state.
func (p *Program) EvalInto(dst *bitvec.Vector, srcs []bitvec.WordSource) EvalResult {
	res, pass := p.begin(dst, srcs)
	if pass {
		p.evalWords(dst, srcs, 0, dst.Words())
		dst.TrimTail()
	}
	return res
}

// EvalParallelInto is EvalInto with segmented fork/join execution over
// dense operands (sequential word sources cannot back concurrent
// segments): up to degree executors from pool (nil for the default pool),
// each with a trace span nested under sp when sp is non-nil (see
// parallel.Pool.ForkJoinSpan). Rows and accounting are identical to
// EvalInto and therefore to the sequential baseline.
func (p *Program) EvalParallelInto(dst *bitvec.Vector, vecs []*bitvec.Vector, pool *parallel.Pool, degree int, sp *obs.Span) EvalResult {
	if pool == nil {
		pool = parallel.Default()
	}
	srcs := make([]bitvec.WordSource, len(vecs))
	for i, v := range vecs {
		srcs[i] = v
	}
	res, pass := p.begin(dst, srcs)
	if pass {
		pool.ForkJoinSpan(sp, "ebi.parallel.worker", dst.Segments(), degree, func(seg int) {
			lo, hi := dst.SegmentSpan(seg)
			p.evalWords(dst, srcs, lo, hi)
		})
		dst.TrimTail()
	}
	return res
}

// begin is the evaluators' shared prologue: it checks the operands,
// computes the analytic accounting, and answers the constant programs
// outright. pass reports whether dst still needs a kernel pass.
func (p *Program) begin(dst *bitvec.Vector, srcs []bitvec.WordSource) (res EvalResult, pass bool) {
	if len(srcs) < p.k {
		panic(fmt.Sprintf("boolmin: expression over %d vars, only %d vectors", p.k, len(srcs)))
	}
	res.Rows = dst
	if p.constFalse {
		dst.Reset()
		return res, false
	}
	res.VectorsRead = p.vectorsRead
	for i := 0; i < p.k; i++ {
		if p.vars&(1<<uint(i)) != 0 {
			res.WordsRead += srcs[i].StatsWords()
		}
	}
	res.Ops = p.ops
	mFusedEvals.Inc()
	if p.constTrue {
		dst.Fill()
		return res, false
	}
	n := dst.Len()
	for i := 0; i < p.k; i++ {
		if p.vars&(1<<uint(i)) != 0 && srcs[i].Len() != n {
			panic(fmt.Sprintf("boolmin: operand %d has %d bits, destination %d", i, srcs[i].Len(), n))
		}
	}
	return res, true
}

// evalWords runs the kernel over dst's words [lo, hi), one block at a
// time.
func (p *Program) evalWords(dst *bitvec.Vector, srcs []bitvec.WordSource, lo, hi int) {
	sc := scratchPool.Get().(*scratch)
	var blocks [MaxVars][]uint64
	for blo := lo; blo < hi; blo += fusedBlockWords {
		bhi := min(blo+fusedBlockWords, hi)
		for i := 0; i < p.k; i++ {
			if p.vars&(1<<uint(i)) != 0 {
				blocks[i] = srcs[i].BlockWords(blo, bhi)
			}
		}
		p.evalBlock(dst.BlockWords(blo, bhi), sc.buf[:bhi-blo], &blocks)
	}
	scratchPool.Put(sc)
}

// evalBlock computes one destination block: acc = OR over cubes of the
// cube's literal product, reading each operand block exactly once. The
// first cube writes acc (so dst needs no pre-zeroing), later cubes OR in;
// negated literals fold into the kernels (^src on first use, AND-NOT
// after), so no complement is ever materialized.
func (p *Program) evalBlock(acc, tmp []uint64, blocks *[MaxVars][]uint64) {
	for ci, lits := range p.cubes {
		if len(lits) == 1 {
			l := lits[0]
			src := blocks[l.v]
			switch {
			case ci == 0 && l.neg:
				copyNotWords(acc, src)
			case ci == 0:
				copy(acc, src)
			case l.neg:
				orNotWords(acc, src)
			default:
				orWords(acc, src)
			}
			continue
		}
		out := acc
		if ci > 0 {
			out = tmp
		}
		if len(lits) == 2 {
			and2Words(out, blocks[lits[0].v], blocks[lits[1].v], lits[0].neg, lits[1].neg)
		} else {
			if lits[0].neg {
				copyNotWords(out, blocks[lits[0].v])
			} else {
				copy(out, blocks[lits[0].v])
			}
			for _, l := range lits[1:] {
				if l.neg {
					andNotWords(out, blocks[l.v])
				} else {
					andWords(out, blocks[l.v])
				}
			}
		}
		if ci > 0 {
			orWords(acc, tmp)
		}
	}
}

// Word-block kernels. Each re-slices its source to the destination length
// so the compiler can elide the inner bounds checks.

func copyNotWords(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = ^a[i]
	}
}

func andWords(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] &= a[i]
	}
}

func andNotWords(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] &^= a[i]
	}
}

func orWords(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] |= a[i]
	}
}

func orNotWords(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] |= ^a[i]
	}
}

// and2Words fuses a two-literal product into one pass: dst = la AND lb
// with each literal's polarity applied in-flight.
func and2Words(dst, a, b []uint64, na, nb bool) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	switch {
	case !na && !nb:
		for i := range dst {
			dst[i] = a[i] & b[i]
		}
	case !na && nb:
		for i := range dst {
			dst[i] = a[i] &^ b[i]
		}
	case na && !nb:
		for i := range dst {
			dst[i] = b[i] &^ a[i]
		}
	default:
		for i := range dst {
			dst[i] = ^(a[i] | b[i])
		}
	}
}

// Selects reports whether the program selects a row holding code — the
// same answer EvalInto computes for that row, without any operand. It
// lets a caller extend an evaluation to rows kept as codes rather than
// vector bits.
func (p *Program) Selects(code uint32) bool {
	if p.constTrue {
		return true
	}
	for _, lits := range p.cubes {
		match := true
		for _, l := range lits {
			if (code>>l.v&1 == 0) != l.neg {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
