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
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/parallel"
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

	// cs is the index's code space: its generation, program cache, domain
	// in code order and don't-care list. Every snapshot of one code space
	// shares it; any change to the code space or the don't-care set (domain
	// expansion, widening, NULL-code allocation, re-encoding) installs a
	// fresh one with the next generation (invalidateCache).
	cs *codeSpace[V]

	// srcs mirrors vectors as fused-kernel operands. It is rebuilt, into a
	// fresh slice, at every point the vectors slice itself changes
	// (construction, widening, deserialization, re-encoding), so read paths
	// never mutate it and clones may share it.
	srcs []bitvec.WordSource

	// observer, when non-nil, receives every value-selection evaluation
	// (see SelectionObserver). Read paths only load it, so observation is
	// safe on a published Synced snapshot.
	observer SelectionObserver[V]
}

// progCacheCap bounds the entries of one code space's program cache. A
// miss that finds the cache full evicts an arbitrary entry, so ad-hoc
// code sets that never repeat cost at most this many reductions' memory.
const progCacheCap = 128

// reduction is one code set's logical reduction under a code space: the
// reduced retrieval expression and its compiled fused program. It is
// shared by every reader and never mutated.
type reduction struct {
	expr boolmin.Expr
	prog *boolmin.Program
}

// exprCopy returns the reduced expression with a cube list of its own, so
// a caller cannot mutate the cached one.
func (r *reduction) exprCopy() boolmin.Expr {
	return boolmin.Expr{K: r.expr.K, Cubes: slices.Clone(r.expr.Cubes)}
}

// codeSpace is one generation of an index's code assignment. It memoizes
// reductions keyed by the canonical code set (sorted, deduplicated codes,
// four little-endian bytes each). A reduction is a pure function of (k,
// code set, don't-cares), all of which the code space pins, so entries
// need no further validation. Concurrent readers of a Synced snapshot fill
// the cache under mu, and the domain and don't-care list once (space).
type codeSpace[V comparable] struct {
	gen uint64
	mu  sync.RWMutex
	m   map[string]*reduction

	once      sync.Once
	domain    []V      // mapped values in code order
	codes     []uint32 // domain[i]'s code, ascending
	dontCares []uint32 // see Index.dontCares

	orderOnce sync.Once
	ordered   bool // values ascend with their codes (orderedDomain)
}

// space returns the index's code space with its domain and don't-care
// list worked out. Every index sharing a code space holds the same
// mapping, NULL code and options, so whichever reads it first fills it.
func (ix *Index[V]) space() *codeSpace[V] {
	cs := ix.cs
	cs.once.Do(func() {
		cs.codes = ix.mapping.Codes()
		cs.domain = make([]V, len(cs.codes))
		for i, c := range cs.codes {
			cs.domain[i], _ = ix.mapping.ValueOf(c)
		}
		if ix.useDC {
			cs.dontCares = ix.freeValueCodes()
		}
	})
	return cs
}

// rebuildSources refreshes the fused-operand view of the vectors slice.
// Must be called from every mutation that replaces or extends the slice
// (appending bits to an existing vector needs nothing: the *bitvec.Vector
// pointers are stable).
func (ix *Index[V]) rebuildSources() {
	ix.srcs = make([]bitvec.WordSource, len(ix.vectors))
	for i, v := range ix.vectors {
		ix.srcs[i] = v
	}
}

// clone returns a copy of the index that shares its vectors and its code
// space but owns its mapping, so expanding the copy's domain (codeFor,
// enableNull) leaves the receiver — a published Synced snapshot —
// untouched.
func (ix *Index[V]) clone() *Index[V] {
	c := *ix
	c.mapping = ix.mapping.Clone()
	return &c
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
	if needNull {
		ix.enableNull()
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
		cs:          new(codeSpace[V]),
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
		ix.enableNull()
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
	return ix.mapping.Rebind(holder, ix.freeCode())
}

// enableNull allocates an artificial code for NULL tuples, if none is
// allocated yet, and returns it.
func (ix *Index[V]) enableNull() uint32 {
	if !ix.hasNullCode {
		ix.nullCode = ix.freeCode()
		ix.hasNullCode = true
		ix.invalidateCache()
	}
	return ix.nullCode
}

// codeFor returns v's code, expanding the domain when v is new — the
// paper's two maintenance cases of Section 2.2: a free code is reused
// when ceil(log2 m) is unchanged (Figure 2a), and the index widens by a
// new bitmap vector otherwise (Figure 2b).
func (ix *Index[V]) codeFor(v V) (uint32, error) {
	if code, ok := ix.mapping.CodeOf(v); ok {
		return code, nil
	}
	code := ix.freeCode()
	if err := ix.mapping.Add(v, code); err != nil {
		return 0, err
	}
	// The new value consumed a free code, shrinking the don't-care set;
	// memoized programs may now cover it.
	ix.invalidateCache()
	return code, nil
}

// freeCode returns the lowest code usable for a new value or the NULL
// code, widening the index by one bit when the code space is full. New
// values and NULLs always take the lowest free code, so replaying rows in
// order reproduces a cold build's code assignment.
func (ix *Index[V]) freeCode() uint32 {
	free := ix.freeValueCodes()
	if len(free) == 0 {
		ix.widen()
		free = ix.freeValueCodes()
	}
	return free[0]
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
// The vectors slice is always replaced, never extended in place, so a
// clone sharing it with a published snapshot can widen.
func (ix *Index[V]) widen() {
	mWidens.Inc()
	newK := ix.mapping.K() + 1
	ix.mapping = ix.mapping.Widen(newK)
	ix.invalidateCache()
	vecs := make([]*bitvec.Vector, newK)
	copy(vecs, ix.vectors)
	for i := len(ix.vectors); i < newK; i++ {
		vecs[i] = bitvec.New(ix.n)
	}
	ix.vectors = vecs
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

// appendCode appends one tuple whose encoded value is code. It charges no
// append counter: replays of tuples that were counted once when they first
// landed (Synced's tail folds and shadow-rebuild catch-up) use it directly.
func (ix *Index[V]) appendCode(code uint32) {
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
	code, err := ix.codeFor(v)
	if err != nil {
		return err
	}
	mAppends.Inc()
	ix.appendCode(code)
	return nil
}

// AppendNull adds a tuple whose attribute is NULL.
func (ix *Index[V]) AppendNull() error {
	mAppends.Inc()
	ix.appendCode(ix.enableNull())
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

// dontCares returns the codes logical reduction may treat as don't-cares:
// unassigned codes excluding the void and NULL codes (those can occur in
// rows, so an expression must stay correct on them). The list is the code
// space's, listed once; callers must not modify it.
func (ix *Index[V]) dontCares() []uint32 { return ix.space().dontCares }

// ExprFor returns the reduced retrieval Boolean expression for the
// selection "A IN values". Values outside the domain are ignored (they
// can match no tuple). The zero-length on-set yields the constant-false
// expression. The expression is the caller's own copy of the cached one.
func (ix *Index[V]) ExprFor(values []V) boolmin.Expr { return ix.selection(values).exprCopy() }

// selection returns the reduction for "A IN values", dropping values
// outside the domain.
func (ix *Index[V]) selection(values []V) *reduction {
	codes := make([]uint32, 0, len(values))
	for _, v := range values {
		if c, ok := ix.mapping.CodeOf(v); ok {
			codes = append(codes, c)
		}
	}
	return ix.reduce(codes)
}

// run evaluates a compiled program over the base vectors into dst, which
// has Len() bits and is fully overwritten, segmented on up to degree
// executors of the shared pool when degree > 1 (further bounded by the
// pool to min(GOMAXPROCS, segments); sp, when non-nil, parents the worker
// spans). Both routes run the same fused per-segment kernel, so rows and
// Stats are identical either way, and the sequential route allocates
// nothing. The destination always has the index's length, so the k=0
// degenerate shapes (constant expressions over an empty code space) come
// out sized correctly with no special casing.
func (ix *Index[V]) run(p *boolmin.Program, dst *bitvec.Vector, degree int, sp *obs.Span) iostat.Stats {
	mEvals.Inc()
	if ix.reserveVoid {
		mVoidSkips.Inc()
	}
	var res boolmin.EvalResult
	if degree > 1 {
		mParallelEvals.Inc()
		res = p.EvalParallelInto(dst, ix.vectors, parallel.Default(), degree, sp)
	} else {
		res = p.EvalInto(dst, ix.srcs)
	}
	return iostat.Stats{
		VectorsRead: res.VectorsRead,
		WordsRead:   res.WordsRead,
		BoolOps:     res.Ops,
	}
}

// reduce returns the reduction selecting a code set under the index's
// code space, running Quine–McCluskey and compiling on the code space's
// first request for the set. codes may come in any order and repeat; reduce
// sorts it in place. Concurrent readers of one Synced snapshot may fill the
// cache together; readers that miss one set at once all get the entry
// stored first. A warm lookup of a set of up to 16 codes allocates nothing.
func (ix *Index[V]) reduce(codes []uint32) *reduction {
	slices.Sort(codes)
	codes = slices.Compact(codes)
	var buf [64]byte
	key := buf[:0]
	for _, c := range codes {
		key = binary.LittleEndian.AppendUint32(key, c)
	}
	pc := ix.cs
	pc.mu.RLock()
	r, ok := pc.m[string(key)]
	pc.mu.RUnlock()
	if ok {
		mExprCacheHits.Inc()
		return r
	}
	mExprCacheMisses.Inc()
	e := boolmin.Minimize(ix.K(), codes, ix.dontCares())
	r = &reduction{expr: e, prog: boolmin.Compile(e)}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	// Another reader that missed the same set may have filled it meanwhile:
	// keep its entry rather than evicting a live one to replace it.
	if prev, ok := pc.m[string(key)]; ok {
		return prev
	}
	if pc.m == nil {
		pc.m = make(map[string]*reduction)
	}
	if len(pc.m) >= progCacheCap {
		for k := range pc.m {
			delete(pc.m, k)
			break
		}
	}
	pc.m[string(key)] = r
	return r
}

// invalidateCache starts a new code-space generation with an empty
// program cache; called when the code space or the don't-care set
// changes.
func (ix *Index[V]) invalidateCache() {
	ix.cs = &codeSpace[V]{gen: ix.cs.gen + 1}
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
	cs := ix.space()
	for i, c := range cs.codes {
		if !excluded[c] {
			codes = append(codes, c)
			included = append(included, cs.domain[i])
		}
	}
	return codes, included
}

// exists reports whether a row holding code is a live, non-NULL tuple.
func (ix *Index[V]) exists(code uint32) bool {
	return !(ix.hasNullCode && code == ix.nullCode) && !(ix.reserveVoid && code == 0)
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
func (ix *Index[V]) Values() []V { return slices.Clone(ix.space().domain) }

// CheckInvariants validates internal consistency: every row's code is a
// mapped value code, the NULL code, or 0 (void); vector lengths agree; and
// the void rows are exactly the deleted ones, since an ordered range's
// cover selects the void code while no row is deleted.
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
	if voidRows != ix.deleted {
		return fmt.Errorf("core: %d rows voided but %d zero codes found", ix.deleted, voidRows)
	}
	return nil
}

// DescribeSelection renders the reduced retrieval expression for a value
// list in the paper's notation, for demos and tests.
func (ix *Index[V]) DescribeSelection(values []V) string {
	return ix.ExprFor(values).String()
}
