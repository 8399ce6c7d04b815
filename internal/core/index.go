// Package core implements the paper's primary contribution: the encoded
// bitmap index (EBI) of Definition 2.1. An EBI over an attribute A with
// cardinality m keeps k = ceil(log2 m') bitmap vectors (m' counts the
// artificial values for non-existing and NULL tuples when enabled), a
// one-to-one mapping from values to k-bit codes, and per-selection
// retrieval Boolean functions that are minimized ("logical reduction")
// before evaluation so that the number of vectors read — the paper's cost
// metric c_e — is as small as the encoding permits.
//
// Maintenance follows Section 2.2: appends without domain expansion touch
// only the k vector tails; appends with domain expansion either reuse a
// free code or widen the index by one vector. Per Theorem 2.1, code 0 is
// reserved for non-existing (deleted) tuples by default, which lets every
// selection over existing tuples skip the existence-mask AND that simple
// bitmap indexes must always pay.
package core

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/reorder"
)

// Options configures Build and New.
type Options[V comparable] struct {
	// Mapping supplies a custom encoding (hierarchy, total-order
	// preserving, well-defined wrt a workload, ...). When nil, Build
	// derives one: either a workload-optimized encoding via
	// encoding.FindEncoding when Predicates are given, or the trivial
	// sequential encoding.
	Mapping *encoding.Mapping[V]
	// Predicates is the expected selection workload used to search for a
	// well-defined encoding when Mapping is nil.
	Predicates [][]V
	// Search tunes the encoding search (nil for defaults).
	Search *encoding.SearchOptions
	// DisableVoidReserve turns off Theorem 2.1's reservation of code 0
	// for non-existing tuples. Deletion is then unsupported.
	DisableVoidReserve bool
	// NullSupport reserves an artificial code for NULLs. It is forced on
	// when Build receives a non-nil isNull slice.
	NullSupport bool
	// DisableDontCares stops logical reduction from treating unassigned
	// codes as don't-care terms (footnote 3).
	DisableDontCares bool
	// Reorder, when non-nil, builds the index over the permuted row
	// order: row i of the index holds column[Reorder[i]]. It must be a
	// bijection on the column's row space (a reorder.Plan's Perm).
	// Queries then answer in reordered row ids; map results back with
	// reorder.MapToOriginal.
	Reorder []int
}

// Index is an encoded bitmap index over values of type V.
type Index[V comparable] struct {
	mapping *encoding.Mapping[V]
	vectors []*bitvec.Vector // vectors[i] = B_i (LSB first)
	n       int              // tuple positions

	reserveVoid bool
	useDC       bool
	hasNullCode bool
	nullCode    uint32

	deleted int // number of voided rows (diagnostics)

	// exprCache memoizes reduced single-value retrieval functions together
	// with their compiled fused programs; it is invalidated whenever the
	// code space or don't-care set changes (domain expansion, widening,
	// NULL-code allocation). generation counts those invalidations so
	// Prepared selections can detect staleness.
	exprCache  map[uint32]cachedSel
	generation uint64

	// srcs mirrors vectors as fused-kernel operands. It is rebuilt eagerly
	// at every point the vectors slice itself changes (construction,
	// widening, deserialization, re-encoding) so read paths — which run
	// under Synced's shared lock — never mutate it.
	srcs []bitvec.WordSource

	// observer, when non-nil, receives every value-selection evaluation
	// (see SelectionObserver). Read paths only load it, so observation is
	// safe under Synced's shared lock.
	observer SelectionObserver[V]
}

// cachedSel is one memoized single-value selection: the reduced expression
// and its fused evaluation program.
type cachedSel struct {
	expr boolmin.Expr
	prog *boolmin.Program
}

// rebuildSources refreshes the fused-operand view of the vectors slice.
// Must be called from every mutation that replaces or extends the slice
// (appending bits to an existing vector needs nothing: the *bitvec.Vector
// pointers are stable).
func (ix *Index[V]) rebuildSources() {
	ix.srcs = ix.srcs[:0]
	for _, v := range ix.vectors {
		ix.srcs = append(ix.srcs, v)
	}
}

// Build constructs an index over the column. isNull may be nil; when given
// it marks NULL rows and implies NullSupport.
func Build[V comparable](column []V, isNull []bool, opt *Options[V]) (*Index[V], error) {
	_, sp := obs.StartSpan(context.Background(), "ebi.core.build")
	if sp != nil {
		sp.SetAttr("rows", len(column))
		defer func() { sp.End() }()
	}
	var o Options[V]
	if opt != nil {
		o = *opt
	}
	if isNull != nil && len(isNull) != len(column) {
		return nil, fmt.Errorf("core: column has %d rows but isNull has %d", len(column), len(isNull))
	}
	if o.Reorder != nil {
		if err := reorder.CheckPermutation(o.Reorder, len(column)); err != nil {
			return nil, err
		}
		column = reorder.Permute(column, o.Reorder)
		isNull = reorder.PermuteBools(isNull, o.Reorder)
	}
	needNull := o.NullSupport
	if isNull != nil {
		for _, b := range isNull {
			if b {
				needNull = true
				break
			}
		}
	}

	// Distinct domain in first-appearance order.
	var domain []V
	seen := make(map[V]bool)
	for i, v := range column {
		if isNull != nil && isNull[i] {
			continue
		}
		if !seen[v] {
			seen[v] = true
			domain = append(domain, v)
		}
	}

	ix, err := New(domain, &o)
	if err != nil {
		return nil, err
	}
	if needNull && !ix.hasNullCode {
		if err := ix.enableNull(); err != nil {
			return nil, err
		}
	}
	for i, v := range column {
		if isNull != nil && isNull[i] {
			if err := ix.AppendNull(); err != nil {
				return nil, err
			}
			continue
		}
		if err := ix.Append(v); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// New constructs an empty index over the given domain. Additional values
// may still be appended later (domain expansion).
func New[V comparable](domain []V, opt *Options[V]) (*Index[V], error) {
	var o Options[V]
	if opt != nil {
		o = *opt
	}
	ix := &Index[V]{
		reserveVoid: !o.DisableVoidReserve,
		useDC:       !o.DisableDontCares,
	}

	switch {
	case o.Mapping != nil:
		ix.mapping = o.Mapping.Clone()
		for _, v := range domain {
			if !ix.mapping.Contains(v) {
				return nil, fmt.Errorf("core: custom mapping is missing value %v", v)
			}
		}
	case len(domain) == 0:
		ix.mapping = encoding.NewMapping[V](0)
	case len(o.Predicates) > 0:
		var so encoding.SearchOptions
		if o.Search != nil {
			so = *o.Search
		}
		// Make the search itself avoid code 0 so Theorem 2.1's void
		// reservation does not disturb the optimized structure afterwards.
		so.ReserveZeroCode = ix.reserveVoid
		m, err := encoding.FindEncoding(domain, o.Predicates, &so)
		if err != nil {
			return nil, err
		}
		ix.mapping = m
	default:
		ix.mapping = encoding.MappingOf(domain)
	}

	if ix.reserveVoid {
		if err := ix.reserveZero(); err != nil {
			return nil, err
		}
	}
	if o.NullSupport {
		if err := ix.enableNull(); err != nil {
			return nil, err
		}
	}

	ix.vectors = make([]*bitvec.Vector, ix.mapping.K())
	for i := range ix.vectors {
		ix.vectors[i] = bitvec.New(0)
	}
	ix.rebuildSources()
	return ix, nil
}

// reserveZero frees code 0 for void tuples: if a value holds it, the value
// is rebound to a free code, widening the index by one bit if the code
// space is full. (Theorem 2.1's precondition.)
func (ix *Index[V]) reserveZero() error {
	holder, taken := ix.mapping.ValueOf(0)
	if !taken {
		return nil
	}
	free := ix.freeValueCodes()
	if len(free) == 0 {
		ix.widen()
		free = ix.freeValueCodes()
	}
	return ix.mapping.Rebind(holder, free[0])
}

// enableNull allocates an artificial code for NULL tuples.
func (ix *Index[V]) enableNull() error {
	if ix.hasNullCode {
		return nil
	}
	free := ix.freeValueCodes()
	if len(free) == 0 {
		ix.widen()
		free = ix.freeValueCodes()
	}
	ix.nullCode = free[0]
	ix.hasNullCode = true
	ix.invalidateCache()
	return nil
}

// freeValueCodes lists codes usable for new values: unassigned, not the
// void code, not the NULL code.
func (ix *Index[V]) freeValueCodes() []uint32 {
	var out []uint32
	for _, c := range ix.mapping.FreeCodes() {
		if ix.reserveVoid && c == 0 {
			continue
		}
		if ix.hasNullCode && c == ix.nullCode {
			continue
		}
		out = append(out, c)
	}
	return out
}

// widen grows the code space by one bit: the paper's domain-expansion case
// (b). Existing codes zero-extend, so all existing retrieval functions
// implicitly gain an ANDed B'_new literal; a new all-zero vector is added.
func (ix *Index[V]) widen() {
	mWidens.Inc()
	newK := ix.mapping.K() + 1
	ix.mapping = ix.mapping.Widen(newK)
	ix.invalidateCache()
	for len(ix.vectors) < newK {
		v := bitvec.New(0)
		v.Grow(ix.n)
		ix.vectors = append(ix.vectors, v)
	}
	ix.rebuildSources()
}

// K returns the number of bitmap vectors (h = ceil(log2 m') in the
// paper's cost comparison).
func (ix *Index[V]) K() int { return ix.mapping.K() }

// Len returns the number of tuple positions.
func (ix *Index[V]) Len() int { return ix.n }

// Cardinality returns the number of mapped attribute values.
func (ix *Index[V]) Cardinality() int { return ix.mapping.Len() }

// Deleted returns how many rows have been voided.
func (ix *Index[V]) Deleted() int { return ix.deleted }

// Mapping returns a copy of the index's mapping table.
func (ix *Index[V]) Mapping() *encoding.Mapping[V] { return ix.mapping.Clone() }

// Vector exposes bitmap vector B_i for group-set composition and tests.
func (ix *Index[V]) Vector(i int) *bitvec.Vector { return ix.vectors[i] }

// SizeBytes returns the bit-payload size: the paper's |T| x h / 8.
func (ix *Index[V]) SizeBytes() int {
	total := 0
	for _, v := range ix.vectors {
		total += v.SizeBytes()
	}
	return total
}

// AverageSparsity returns the mean zero fraction across the k vectors;
// the paper's claim is ~1/2 independent of cardinality.
func (ix *Index[V]) AverageSparsity() float64 {
	if len(ix.vectors) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range ix.vectors {
		total += v.Sparsity()
	}
	return total / float64(len(ix.vectors))
}

// appendCode appends one tuple whose encoded value is code.
func (ix *Index[V]) appendCode(code uint32) {
	mAppends.Inc()
	ix.appendCodeQuiet(code)
}

// appendCodeQuiet is appendCode without the append counter: the path for
// replaying tuples that were already counted once when they first landed
// (Synced's tail folds and shadow-rebuild catch-up).
func (ix *Index[V]) appendCodeQuiet(code uint32) {
	ix.n++
	for i, vec := range ix.vectors {
		vec.Append(code&(1<<uint(i)) != 0)
	}
}

// Append adds a tuple with the given value, handling both maintenance
// cases of Section 2.2: a known value only appends k bits; an unknown
// value expands the domain, reusing a free code when
// ceil(log2 m) is unchanged (Figure 2a) and widening the index by a new
// bitmap vector otherwise (Figure 2b).
func (ix *Index[V]) Append(v V) error {
	code, ok := ix.mapping.CodeOf(v)
	if !ok {
		free := ix.freeValueCodes()
		if len(free) == 0 {
			ix.widen()
			free = ix.freeValueCodes()
		}
		code = free[0]
		if err := ix.mapping.Add(v, code); err != nil {
			return err
		}
		// The new value consumed a free code, shrinking the don't-care
		// set; memoized expressions may now cover it.
		ix.invalidateCache()
	}
	ix.appendCode(code)
	return nil
}

// appendValueQuiet is Append without the append counter, for replaying
// already-counted tuples into a private index (tail folds, shadow
// catch-up). Domain expansion behaves exactly like Append's.
func (ix *Index[V]) appendValueQuiet(v V) error {
	code, ok := ix.mapping.CodeOf(v)
	if !ok {
		free := ix.freeValueCodes()
		if len(free) == 0 {
			ix.widen()
			free = ix.freeValueCodes()
		}
		code = free[0]
		if err := ix.mapping.Add(v, code); err != nil {
			return err
		}
		ix.invalidateCache()
	}
	ix.appendCodeQuiet(code)
	return nil
}

// AppendNull adds a tuple whose attribute is NULL.
func (ix *Index[V]) AppendNull() error {
	if !ix.hasNullCode {
		if err := ix.enableNull(); err != nil {
			return err
		}
	}
	ix.appendCode(ix.nullCode)
	return nil
}

// appendNullQuiet is AppendNull without the append counter (see
// appendValueQuiet).
func (ix *Index[V]) appendNullQuiet() error {
	if !ix.hasNullCode {
		if err := ix.enableNull(); err != nil {
			return err
		}
	}
	ix.appendCodeQuiet(ix.nullCode)
	return nil
}

// Delete voids a tuple by overwriting its code with 0 (Theorem 2.1's
// convention), so subsequent selections skip it with no existence mask.
func (ix *Index[V]) Delete(row int) error {
	if !ix.reserveVoid {
		return fmt.Errorf("core: deletion requires the void-code reservation (Theorem 2.1)")
	}
	if row < 0 || row >= ix.n {
		return fmt.Errorf("core: row %d out of range [0,%d)", row, ix.n)
	}
	if ix.CodeAt(row) == 0 {
		return nil // already void; no value or NULL code is ever 0
	}
	for _, vec := range ix.vectors {
		vec.Clear(row)
	}
	ix.deleted++
	return nil
}

// Update changes the value of an existing row in place by overwriting its
// code — the per-tuple O(h) maintenance cost of Section 3.1. The new
// value may expand the domain (both Figure 2 cases apply).
func (ix *Index[V]) Update(row int, v V) error {
	if row < 0 || row >= ix.n {
		return fmt.Errorf("core: row %d out of range [0,%d)", row, ix.n)
	}
	code, ok := ix.mapping.CodeOf(v)
	if !ok {
		free := ix.freeValueCodes()
		if len(free) == 0 {
			ix.widen()
			free = ix.freeValueCodes()
		}
		code = free[0]
		if err := ix.mapping.Add(v, code); err != nil {
			return err
		}
		ix.invalidateCache()
	}
	wasVoid := ix.CodeAt(row) == 0
	for i, vec := range ix.vectors {
		vec.SetTo(row, code&(1<<uint(i)) != 0)
	}
	if ix.reserveVoid && wasVoid && ix.deleted > 0 {
		ix.deleted--
	}
	return nil
}

// dontCares returns the codes logical reduction may treat as don't-cares:
// unassigned codes excluding the void and NULL codes (those can occur in
// rows, so an expression must stay correct on them).
func (ix *Index[V]) dontCares() []uint32 {
	if !ix.useDC {
		return nil
	}
	return ix.freeValueCodes()
}

// dontCareCount is len(dontCares()) counted without listing the code
// space: every code the mapping leaves free, less the void and NULL codes.
func (ix *Index[V]) dontCareCount() int {
	if !ix.useDC {
		return 0
	}
	free := 1<<uint(ix.K()) - ix.mapping.Len()
	if _, taken := ix.mapping.ValueOf(0); ix.reserveVoid && !taken {
		free--
	}
	if _, taken := ix.mapping.ValueOf(ix.nullCode); ix.hasNullCode && !taken && !(ix.reserveVoid && ix.nullCode == 0) {
		free--
	}
	return free
}

// ExprFor returns the reduced retrieval Boolean expression for the
// selection "A IN values". Values outside the domain are ignored (they
// can match no tuple). The zero-length on-set yields the constant-false
// expression.
func (ix *Index[V]) ExprFor(values []V) boolmin.Expr {
	var codes []uint32
	for _, v := range values {
		if c, ok := ix.mapping.CodeOf(v); ok {
			codes = append(codes, c)
		}
	}
	return boolmin.Minimize(ix.K(), codes, ix.dontCares())
}

// evalExpr evaluates a reduced expression against the index's vectors
// through the fused single-pass kernel, compiling the expression on the
// fly. Hot paths (Eq, Prepared) cache the compiled program instead.
func (ix *Index[V]) evalExpr(e boolmin.Expr) (*bitvec.Vector, iostat.Stats) {
	return ix.evalProgram(boolmin.Compile(e))
}

// evalProgram runs a compiled fused program into a fresh row set.
func (ix *Index[V]) evalProgram(p *boolmin.Program) (*bitvec.Vector, iostat.Stats) {
	dst := bitvec.New(ix.n)
	return dst, ix.evalProgramInto(p, dst)
}

// evalProgramInto runs a compiled fused program into a caller-provided row
// set of length Len(), allocating nothing. The destination always has the
// index's length, so the k=0 degenerate shapes (constant expressions over
// an empty code space) come out sized correctly with no special casing.
func (ix *Index[V]) evalProgramInto(p *boolmin.Program, dst *bitvec.Vector) iostat.Stats {
	mEvals.Inc()
	if ix.reserveVoid {
		mVoidSkips.Inc()
	}
	res := p.EvalInto(dst, ix.sources())
	return iostat.Stats{
		VectorsRead: res.VectorsRead,
		WordsRead:   res.WordsRead,
		BoolOps:     res.Ops,
	}
}

// sources returns the vectors as fused-kernel operands. The slice is
// maintained eagerly by rebuildSources; the lazy refresh below only fires
// for hand-assembled indexes outside the exported constructors and must
// never be reached under Synced's shared lock (all vector-slice mutations
// hold the write lock and rebuild eagerly).
func (ix *Index[V]) sources() []bitvec.WordSource {
	if len(ix.srcs) != len(ix.vectors) {
		ix.rebuildSources()
	}
	return ix.srcs
}

// Eq returns the rows where the attribute equals v. The cost is the full
// min-term: k vectors (c_e's single-value case), possibly fewer when
// don't-care codes let the min-term shed literals. The reduced expression
// is memoized per code.
func (ix *Index[V]) Eq(v V) (*bitvec.Vector, iostat.Stats) {
	rows := bitvec.New(ix.n)
	return rows, ix.EqInto(v, rows)
}

// EqInto is Eq with a caller-provided destination: dst (length Len(),
// fully overwritten) receives the rows where the attribute equals v. On a
// warmed index — the value's reduced expression already memoized — it
// performs zero allocations, which is the steady-state point-query path.
func (ix *Index[V]) EqInto(v V, dst *bitvec.Vector) iostat.Stats {
	if dst.Len() != ix.n {
		panic(fmt.Sprintf("core: EqInto destination has %d bits, index %d", dst.Len(), ix.n))
	}
	code, ok := ix.mapping.CodeOf(v)
	if !ok {
		dst.Reset()
		return iostat.Stats{}
	}
	st := ix.evalProgramInto(ix.cachedProgram(code), dst)
	ix.observeSelection([]V{v}, st)
	return st
}

// cachedProgram returns the memoized reduced expression + fused program
// for a single code, minimizing and compiling on miss. Not for use under
// Synced's shared lock (it populates the cache); Synced reads go through
// In, which compiles afresh.
func (ix *Index[V]) cachedProgram(code uint32) *boolmin.Program {
	if sel, ok := ix.exprCache[code]; ok {
		mExprCacheHits.Inc()
		mProgCacheHits.Inc()
		return sel.prog
	}
	mExprCacheMisses.Inc()
	e := boolmin.Minimize(ix.K(), []uint32{code}, ix.dontCares())
	if ix.exprCache == nil {
		ix.exprCache = make(map[uint32]cachedSel)
	}
	sel := cachedSel{expr: e, prog: boolmin.Compile(e)}
	ix.exprCache[code] = sel
	return sel.prog
}

// invalidateCache drops memoized expressions; called when the code space
// or the don't-care set changes.
func (ix *Index[V]) invalidateCache() {
	ix.exprCache = nil
	ix.generation++
}

// In returns the rows where the attribute is in the value list, evaluating
// the reduced retrieval expression — the paper's range-search path where
// c_e <= ceil(log2 m) regardless of the list width δ.
func (ix *Index[V]) In(values []V) (*bitvec.Vector, iostat.Stats) {
	return ix.InExpr(values, ix.ExprFor(values))
}

// InExpr is In for a caller that already holds the selection's reduced
// expression, e = ExprFor(values) under the current encoding: a paged
// wrapper reduces once to learn which vectors to fault, then evaluates
// that same expression.
func (ix *Index[V]) InExpr(values []V, e boolmin.Expr) (*bitvec.Vector, iostat.Stats) {
	rows, st := ix.evalExpr(e)
	ix.observeSelection(values, st)
	return rows, st
}

// NotIn returns existing, non-NULL rows outside the value list. Because
// void is 0 and never part of a value code set, the complement must
// explicitly exclude void and NULL codes.
func (ix *Index[V]) NotIn(values []V) (*bitvec.Vector, iostat.Stats) {
	codes, included := ix.complement(values)
	rows, st := ix.evalExpr(boolmin.Minimize(ix.K(), codes, ix.dontCares()))
	// The complement is what the reduced expression actually selects, so
	// that is what the observer (and any re-encoding workload built from
	// it) records.
	ix.observeSelection(included, st)
	return rows, st
}

// complement lists the mapped values outside the value list, and their
// codes: NotIn's selection.
func (ix *Index[V]) complement(values []V) (codes []uint32, included []V) {
	excluded := make(map[uint32]bool, len(values)+2)
	for _, v := range values {
		if c, ok := ix.mapping.CodeOf(v); ok {
			excluded[c] = true
		}
	}
	for _, v := range ix.mapping.Values() {
		c, _ := ix.mapping.CodeOf(v)
		if !excluded[c] {
			codes = append(codes, c)
			included = append(included, v)
		}
	}
	return codes, included
}

// IsNull returns the NULL rows.
func (ix *Index[V]) IsNull() (*bitvec.Vector, iostat.Stats) {
	if !ix.hasNullCode {
		return bitvec.New(ix.n), iostat.Stats{}
	}
	return ix.evalExpr(ix.nullExpr())
}

// nullExpr is the reduced retrieval expression selecting the NULL code.
func (ix *Index[V]) nullExpr() boolmin.Expr {
	return boolmin.Minimize(ix.K(), []uint32{ix.nullCode}, ix.dontCares())
}

// Existing returns all non-void, non-NULL rows. With the void-zero
// reservation it needs no Boolean minimization at all: a row exists iff
// its code is nonzero (the OR of all vectors) and is not the NULL code.
func (ix *Index[V]) Existing() (*bitvec.Vector, iostat.Stats) {
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
		res := boolmin.Compile(boolmin.RetrievalFunction(ix.K(), ix.nullCode)).EvalInto(nulls, ix.sources())
		st.BoolOps += res.Ops + 1
		acc.AndNot(nulls)
	}
	return acc, st
}

// DecodeRow returns the value at a row. ok is false for void or NULL rows
// (isNull distinguishes the two).
func (ix *Index[V]) DecodeRow(row int) (v V, isNull, ok bool) {
	code := ix.CodeAt(row)
	if ix.hasNullCode && code == ix.nullCode {
		return v, true, false
	}
	val, found := ix.mapping.ValueOf(code)
	if !found {
		return v, false, false
	}
	return val, false, true
}

// CodeAt reconstructs the k-bit code of a row from the vectors.
func (ix *Index[V]) CodeAt(row int) uint32 {
	var code uint32
	for i, vec := range ix.vectors {
		if vec.Get(row) {
			code |= 1 << uint(i)
		}
	}
	return code
}

// Values returns the domain values ordered by code.
func (ix *Index[V]) Values() []V { return ix.mapping.Values() }

// CheckInvariants validates internal consistency: every row's code is a
// mapped value code, the NULL code, or 0 (void); vector lengths agree.
func (ix *Index[V]) CheckInvariants() error {
	for i, vec := range ix.vectors {
		if vec.Len() != ix.n {
			return fmt.Errorf("core: vector %d has %d bits, want %d", i, vec.Len(), ix.n)
		}
	}
	voidRows := 0
	for row := 0; row < ix.n; row++ {
		code := ix.CodeAt(row)
		if _, ok := ix.mapping.ValueOf(code); ok {
			continue
		}
		if ix.hasNullCode && code == ix.nullCode {
			continue
		}
		if ix.reserveVoid && code == 0 {
			voidRows++
			continue
		}
		return fmt.Errorf("core: row %d carries unmapped code %0*b", row, ix.K(), code)
	}
	if voidRows < ix.deleted {
		return fmt.Errorf("core: %d rows voided but only %d zero codes found", ix.deleted, voidRows)
	}
	return nil
}

// DescribeSelection renders the reduced retrieval expression for a value
// list in the paper's notation, for demos and tests.
func (ix *Index[V]) DescribeSelection(values []V) string {
	return ix.ExprFor(values).String()
}
