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
// A Program holds its cubes as a literal trie: every cube's literals in
// MSB-first variable order, cubes with a common literal prefix sharing its
// nodes, flattened in pre-order. A cube whose path extends a shorter
// cube's path is subsumed by it and dropped. The kernel walks the trie
// once per block, keeping the product of the current path's literals in
// one scratch block per depth: an inner node writes parent AND literal
// into its depth's block, a leaf ORs parent AND literal straight into the
// accumulator, and a depth-0 literal is read in place from its operand
// block, its polarity folded into its children. A block therefore costs
// one pass per trie node below depth 0, plus one per single-literal cube,
// where a flat cube list costs one per literal plus one per cube; shared
// prefixes (an IN list's common high bits, an interval cover's aligned
// subcubes) are evaluated once.
//
// The iostat accounting is computed analytically from the expression and
// is exactly the sequential baseline's: identical VectorsRead, WordsRead,
// and Ops as EvalVectors would report, trie and block structure
// notwithstanding.
package boolmin

import (
	"fmt"
	"math/bits"
	"slices"
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

// trieNode is one literal of the compiled cube trie: operand slot and
// polarity, its depth on the path (the literals above it), and where its
// subtree ends in the pre-order node list.
type trieNode struct {
	v     uint8
	neg   bool
	depth uint8
	leaf  bool  // a cube ends here: parent AND literal ORs into the result
	first bool  // the first leaf in pre-order: it writes the result instead
	next  int32 // index of the first node past this node's subtree
}

// Program is a reduced retrieval expression compiled for fused evaluation.
// Compile once, evaluate many times; a Program is immutable and safe for
// concurrent use (every evaluation's mutable state is per-call).
type Program struct {
	k     int
	nodes []trieNode // the cube trie, MSB-first, in pre-order

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

	km := kmask(e.K)
	negSeen := uint32(0)
	for _, c := range e.Cubes {
		lits := ^c.Mask & km
		if lits == 0 {
			// Constant-true cube: the baseline fills and returns without
			// charging this cube's OR or evaluating later cubes.
			p.constTrue = true
			return p
		}
		// The baseline materializes NOT B_i once, on first use, then
		// charges one AND per literal after the first and one OR.
		negs := lits &^ c.Value
		p.ops += bits.OnesCount32(negs&^negSeen) + bits.OnesCount32(lits)
		negSeen |= negs
	}
	p.nodes = buildTrie(e)
	return p
}

// buildTrie lays the cubes' literals out as a trie in MSB-first variable
// order, flattened in pre-order. Sorting the literal paths puts every path
// right after the paths it shares a prefix with, and a path after its own
// prefixes: a path that extends (or repeats) the last one kept is subsumed
// by that cube and dropped.
func buildTrie(e Expr) []trieNode {
	// A literal's key is its variable and polarity, v<<1 | neg.
	keys := make([]uint8, 0, len(e.Cubes)*e.K)
	paths := make([][]uint8, len(e.Cubes))
	for ci, c := range e.Cubes {
		start := len(keys)
		for i := e.K - 1; i >= 0; i-- {
			bit := uint32(1) << uint(i)
			if c.Mask&bit == 0 {
				key := uint8(i) << 1
				if c.Value&bit == 0 {
					key |= 1
				}
				keys = append(keys, key)
			}
		}
		paths[ci] = keys[start:len(keys):len(keys)]
	}
	slices.SortFunc(paths, slices.Compare)

	var nodes []trieNode
	var open []int32 // open[d]: the node at depth d on the last kept path
	var last []uint8
	for _, path := range paths {
		c := 0
		for c < len(last) && c < len(path) && last[c] == path[c] {
			c++
		}
		if last != nil && c == len(last) {
			continue // subsumed by the last kept cube
		}
		for _, i := range open[c:] {
			nodes[i].next = int32(len(nodes))
		}
		open = open[:c]
		for d := c; d < len(path); d++ {
			open = append(open, int32(len(nodes)))
			nodes = append(nodes, trieNode{v: path[d] >> 1, neg: path[d]&1 != 0, depth: uint8(d), leaf: d == len(path)-1})
		}
		last = path
	}
	for _, i := range open {
		nodes[i].next = int32(len(nodes))
	}
	for i := range nodes {
		if nodes[i].leaf {
			nodes[i].first = true
			break
		}
	}
	return nodes
}

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

// scratch holds an evaluation's product blocks, one per trie depth from 1
// to k-2: a node at depth k-1 is a cube's k-th literal, so always a leaf.
// It is one allocation, so a pool miss costs exactly one.
type scratch struct {
	bufs [MaxVars - 2][fusedBlockWords]uint64
}

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
	var blocks, prod [MaxVars][]uint64
	for blo := lo; blo < hi; blo += fusedBlockWords {
		bhi := min(blo+fusedBlockWords, hi)
		for i := 0; i < p.k; i++ {
			if p.vars&(1<<uint(i)) != 0 {
				blocks[i] = srcs[i].BlockWords(blo, bhi)
			}
		}
		p.evalBlock(dst.BlockWords(blo, bhi), sc, &blocks, &prod)
	}
	scratchPool.Put(sc)
}

// evalBlock computes one destination block by walking the trie in
// pre-order. prod[d] is the product of the current path's literals above
// depth d: the depth-0 literal's operand block itself (negated when
// rootNeg), deeper products a scratch block per depth. Each node below
// depth 0 is one pass over the block: an inner node writes its depth's
// product, a leaf ORs parent AND literal into acc (the first leaf writes
// acc, so dst needs no pre-zeroing). Negations fold into the kernels, so
// no complement is ever materialized.
func (p *Program) evalBlock(acc []uint64, sc *scratch, blocks, prod *[MaxVars][]uint64) {
	rootNeg := false
	for i := range p.nodes {
		nd := &p.nodes[i]
		src := blocks[nd.v]
		if nd.depth == 0 {
			switch {
			case !nd.leaf:
				prod[1], rootNeg = src, nd.neg
			case nd.first && nd.neg:
				copyNotWords(acc, src)
			case nd.first:
				copy(acc, src)
			case nd.neg:
				orNotWords(acc, src)
			default:
				orWords(acc, src)
			}
			continue
		}
		par, parNeg := prod[nd.depth], nd.depth == 1 && rootNeg
		switch {
		case !nd.leaf:
			out := sc.bufs[nd.depth-1][:len(acc)]
			and2Words(out, par, src, parNeg, nd.neg)
			prod[nd.depth+1] = out
		case nd.first:
			and2Words(acc, par, src, parNeg, nd.neg)
		default:
			orAnd2Words(acc, par, src, parNeg, nd.neg)
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

// orAnd2Words ORs a two-literal product into dst in one pass: dst |= la
// AND lb with each literal's polarity applied in-flight.
func orAnd2Words(dst, a, b []uint64, na, nb bool) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	switch {
	case !na && !nb:
		for i := range dst {
			dst[i] |= a[i] & b[i]
		}
	case !na && nb:
		for i := range dst {
			dst[i] |= a[i] &^ b[i]
		}
	case na && !nb:
		for i := range dst {
			dst[i] |= b[i] &^ a[i]
		}
	default:
		for i := range dst {
			dst[i] |= ^(a[i] | b[i])
		}
	}
}

// Selects reports whether the program selects a row holding code — the
// same answer EvalInto computes for that row, without any operand. It
// lets a caller extend an evaluation to rows kept as codes rather than
// vector bits. It walks the trie, skipping the subtree of every literal
// the code fails.
func (p *Program) Selects(code uint32) bool {
	if p.constTrue {
		return true
	}
	for i := 0; i < len(p.nodes); {
		nd := &p.nodes[i]
		if (code>>nd.v&1 == 0) != nd.neg {
			i = int(nd.next)
			continue
		}
		if nd.leaf {
			return true
		}
		i++
	}
	return false
}
