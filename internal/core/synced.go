package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// Synced is a concurrency-safe wrapper around an Index built on an
// epoch/RCU scheme instead of a reader-writer lock: the current state —
// an immutable base Index snapshot plus an append-only tail of encoded
// codes — lives behind an atomic pointer. Readers load the pointer once
// and evaluate entirely against that snapshot, so they never block and
// never observe a torn write; writers publish a fresh state and the old
// one is reclaimed by the garbage collector once the last reader drops
// it (GC as the grace period).
//
// Appends are O(1) publications: the code lands in the tail and readers
// extend their snapshot evaluation across it. The tail is folded into
// the base vectors in the background once it crosses the fold
// threshold. Maintenance operations (Delete, WithWriteLock, Reencode)
// rebuild a private copy and swap it in atomically; Reencode in
// particular runs the paper's dynamic re-encoding as a background
// shadow rebuild with catch-up replay, so heavy read traffic runs
// straight through a re-encoding with zero stalls.
//
// Stats parity: every read reports iostat.Stats exactly equal to what a
// plain Index holding the same rows would report. The fused program's
// accounting is analytic — VectorsRead and BoolOps depend only on the
// expression, WordsRead is VectorsRead dense words — so extending a
// base-snapshot evaluation over the tail only needs
// WordsRead += VectorsRead * (words(n) - words(n0)).
type Synced[V comparable] struct {
	state atomic.Pointer[epochState[V]]

	// writeMu serializes every state publication (appends, observer
	// swaps, and the final flip of maintenance rebuilds). Readers never
	// take it.
	writeMu sync.Mutex
	// maintMu serializes whole-index maintenance (tail folds, Delete,
	// WithWriteLock, Reencode) so at most one rebuild runs at a time.
	// It is acquired before writeMu and never the other way around.
	maintMu sync.Mutex

	// tailMaster is the writer-owned backing array of the published
	// tail. Appends extend it in place and re-publish a longer header;
	// readers index only [0, tailLen) of their snapshot, which was
	// fully written before that snapshot was published.
	tailMaster []uint64

	foldThreshold int

	// progs caches compiled single-code fused programs for the current
	// encoding generation (the Eq hot path). Replaced wholesale when
	// the code space changes; see cachedProgram.
	progs atomic.Pointer[syncedProgCache]

	// testHook, when non-nil, is called at fixed points inside Reencode
	// (0: shadow built; 1: after a catch-up round; 2: before taking the
	// flip lock) so tests can inject appends at precise interleavings.
	// Set it before any concurrent use.
	testHook func(stage int)
}

// epochState is one immutable published state of a Synced index.
type epochState[V comparable] struct {
	// ix is the base snapshot. Its vectors, mapping, and flags are
	// never mutated after publication; readers may evaluate (cache-free
	// paths only) and observe freely.
	ix *Index[V]
	// tail holds codes appended since ix was built, one uint64-padded
	// k-bit code per row, in append order. Only [0, tailLen) is valid
	// for this state; the backing array may grow in place afterwards.
	tail    []uint64
	tailLen int
	// epoch counts re-encoding flips; it changes only when the live
	// code assignment is swapped (Reencode).
	epoch uint64
	// encGen counts code-space generations: any change to the mapping
	// content, vector count, don't-care set, or NULL code bumps it.
	// Equal encGen values guarantee identical compiled programs.
	encGen uint64
}

// DefaultFoldThreshold is the tail length at which appends opportunistically
// fold the tail into the base vectors.
const DefaultFoldThreshold = 4096

// Flip tuning for Reencode's catch-up loop: replay rounds continue while
// more than reencodeFlipTail appends are outstanding (bounded by
// reencodeMaxRounds so a hot writer cannot starve the flip forever).
const (
	reencodeFlipTail  = 256
	reencodeMaxRounds = 8
)

// NewSynced wraps an index. The caller must not use the wrapped index
// directly afterwards.
func NewSynced[V comparable](ix *Index[V]) *Synced[V] {
	s := &Synced[V]{foldThreshold: DefaultFoldThreshold}
	s.state.Store(&epochState[V]{ix: publishableClone(ix), epoch: 1, encGen: 1})
	return s
}

// BuildSynced builds an index and wraps it.
func BuildSynced[V comparable](column []V, isNull []bool, opt *Options[V]) (*Synced[V], error) {
	ix, err := Build(column, isNull, opt)
	if err != nil {
		return nil, err
	}
	return NewSynced(ix), nil
}

// SetFoldThreshold sets the tail length that triggers a background fold.
// Call before any concurrent use.
func (s *Synced[V]) SetFoldThreshold(n int) {
	if n < 1 {
		n = 1
	}
	s.foldThreshold = n
}

// wordsFor returns the dense word count of an n-bit vector, mirroring
// bitvec's layout: the analytic WordsRead unit.
func wordsFor(n int) int { return (n + 63) / 64 }

// extendTail grows a base-snapshot result vector across the state's tail,
// setting the rows whose appended code matches, and extends the analytic
// stats to the full logical length: each vector the expression read is a
// dense operand, so the tail contributes exactly the dense word delta per
// vector read. BoolOps and VectorsRead are length-independent.
func extendTail[V comparable](st *epochState[V], rows *bitvec.Vector, stats *iostat.Stats, match func(code uint32) bool) {
	n0 := st.ix.n
	n := n0 + st.tailLen
	if rows.Len() < n {
		rows.Grow(n)
	}
	for i := 0; i < st.tailLen; i++ {
		if match(uint32(st.tail[i])) {
			rows.Set(n0 + i)
		}
	}
	stats.WordsRead += stats.VectorsRead * (wordsFor(n) - wordsFor(n0))
}

// publishableClone shallow-copies an index into a form safe to publish as
// an immutable snapshot: no memoized expression cache (Eq would mutate
// it) and a private fused-operand slice (rebuildSources reuses backing
// arrays otherwise).
func publishableClone[V comparable](ix *Index[V]) *Index[V] {
	c := *ix
	c.exprCache = nil
	c.srcs = nil
	c.rebuildSources()
	return &c
}

// widenCopied is Index.widen for a clone that shares its vectors slice
// with a published snapshot: the slice itself is replaced, never
// appended to in place.
func widenCopied[V comparable](c *Index[V]) {
	mWidens.Inc()
	newK := c.mapping.K() + 1
	c.mapping = c.mapping.Widen(newK)
	vecs := make([]*bitvec.Vector, 0, newK)
	vecs = append(vecs, c.vectors...)
	for len(vecs) < newK {
		nv := bitvec.New(0)
		nv.Grow(c.n)
		vecs = append(vecs, nv)
	}
	c.vectors = vecs
	c.srcs = nil
	c.rebuildSources()
}

// expandedClone returns a publishable clone whose mapping additionally
// covers v (domain expansion: free-code reuse or widening, Section 2.2),
// along with v's code. The receiver snapshot is untouched.
func expandedClone[V comparable](ix *Index[V], v V) (*Index[V], uint32, error) {
	c := publishableClone(ix)
	c.mapping = ix.mapping.Clone()
	free := c.freeValueCodes()
	if len(free) == 0 {
		widenCopied(c)
		free = c.freeValueCodes()
	}
	code := free[0]
	if err := c.mapping.Add(v, code); err != nil {
		return nil, 0, err
	}
	return c, code, nil
}

// nullEnabledClone returns a publishable clone with a NULL code
// allocated, leaving the receiver snapshot untouched.
func nullEnabledClone[V comparable](ix *Index[V]) *Index[V] {
	c := publishableClone(ix)
	c.mapping = ix.mapping.Clone()
	free := c.freeValueCodes()
	if len(free) == 0 {
		widenCopied(c)
		free = c.freeValueCodes()
	}
	c.nullCode = free[0]
	c.hasNullCode = true
	return c
}

// syncedProgCache memoizes compiled single-code fused programs for one
// encoding generation. Programs are pure functions of (k, code,
// don't-cares), all pinned by encGen, so entries need no further
// validation.
type syncedProgCache struct {
	encGen uint64
	m      sync.Map // uint32 code -> *boolmin.Program
}

// cachedProgram returns the compiled program selecting code under the
// state's encoding, from the shared cache when the state is current.
// The cache is keyed by encoding generation and replaced wholesale when
// a newer generation arrives — the live-re-encoding invalidation the
// per-Index cache handles with invalidateCache. A reader holding an
// older-generation snapshot compiles uncached rather than poisoning the
// cache for current readers.
func (s *Synced[V]) cachedProgram(st *epochState[V], code uint32) *boolmin.Program {
	pc := s.progs.Load()
	if pc == nil || pc.encGen != st.encGen {
		fresh := &syncedProgCache{encGen: st.encGen}
		switch {
		case pc == nil:
			if !s.progs.CompareAndSwap(nil, fresh) {
				fresh = nil
			}
		case st.encGen > pc.encGen:
			if !s.progs.CompareAndSwap(pc, fresh) {
				fresh = nil
			}
		default:
			fresh = nil
		}
		pc = fresh
		if pc == nil {
			if latest := s.progs.Load(); latest != nil && latest.encGen == st.encGen {
				pc = latest
			}
		}
		if pc == nil {
			mExprCacheMisses.Inc()
			return boolmin.Compile(boolmin.Minimize(st.ix.K(), []uint32{code}, st.ix.dontCares()))
		}
	}
	if v, ok := pc.m.Load(code); ok {
		mExprCacheHits.Inc()
		mProgCacheHits.Inc()
		return v.(*boolmin.Program)
	}
	mExprCacheMisses.Inc()
	p := boolmin.Compile(boolmin.Minimize(st.ix.K(), []uint32{code}, st.ix.dontCares()))
	pc.m.Store(code, p)
	return p
}

// Eq returns rows equal to v, through the per-code compiled-program
// cache (epoch-keyed, so a live re-encoding can never serve a program
// minimized under the old code assignment).
func (s *Synced[V]) Eq(v V) (*bitvec.Vector, iostat.Stats) { return s.eq(s.state.Load(), v) }

// eq is Eq against one loaded snapshot.
func (s *Synced[V]) eq(st *epochState[V], v V) (*bitvec.Vector, iostat.Stats) {
	code, ok := st.ix.mapping.CodeOf(v)
	if !ok {
		return bitvec.New(st.ix.n + st.tailLen), iostat.Stats{}
	}
	rows, stats := st.ix.evalProgram(s.cachedProgram(st, code))
	extendTail(st, rows, &stats, func(c uint32) bool { return c == code })
	st.ix.observeSelection([]V{v}, stats)
	return rows, stats
}

// EqInto is Eq with a caller-provided destination, fully overwritten.
// When the index is quiescent (no outstanding tail), the value is mapped,
// and dst matches the snapshot length it is the zero-allocation
// steady-state path; otherwise the result is computed against the loaded
// snapshot and dst's contents are replaced, so concurrent appends degrade
// the allocation guarantee but never correctness.
func (s *Synced[V]) EqInto(v V, dst *bitvec.Vector) iostat.Stats {
	st := s.state.Load()
	if code, ok := st.ix.mapping.CodeOf(v); ok && st.tailLen == 0 && dst.Len() == st.ix.n {
		stats := st.ix.evalProgramInto(s.cachedProgram(st, code), dst)
		st.ix.observeSelection([]V{v}, stats)
		return stats
	}
	rows, stats := s.eq(st, v)
	*dst = *rows
	return stats
}

// In returns rows matching the value list.
func (s *Synced[V]) In(values []V) (*bitvec.Vector, iostat.Stats) {
	return s.InParallel(values, 1, nil)
}

// NotIn returns existing rows outside the value list.
func (s *Synced[V]) NotIn(values []V) (*bitvec.Vector, iostat.Stats) {
	st := s.state.Load()
	ix := st.ix
	codes, included := ix.complement(values)
	includedCodes := make(map[uint32]bool, len(codes))
	for _, c := range codes {
		includedCodes[c] = true
	}
	rows, stats := ix.evalExpr(boolmin.Minimize(ix.K(), codes, ix.dontCares()))
	extendTail(st, rows, &stats, func(c uint32) bool { return includedCodes[c] })
	ix.observeSelection(included, stats)
	return rows, stats
}

// IsNull returns NULL rows: the snapshot's IsNull, extended across the
// append tail.
func (s *Synced[V]) IsNull() (*bitvec.Vector, iostat.Stats) {
	st := s.state.Load()
	ix := st.ix
	rows, stats := ix.IsNull()
	extendTail(st, rows, &stats, func(c uint32) bool { return ix.hasNullCode && c == ix.nullCode })
	return rows, stats
}

// Existing returns non-void, non-NULL rows: the snapshot's Existing,
// extended across the append tail.
func (s *Synced[V]) Existing() (*bitvec.Vector, iostat.Stats) {
	st := s.state.Load()
	ix := st.ix
	acc, stats := ix.Existing()
	extendTail(st, acc, &stats, func(c uint32) bool {
		if ix.hasNullCode && c == ix.nullCode {
			return false
		}
		if ix.reserveVoid && c == 0 {
			return false
		}
		return true
	})
	return acc, stats
}

// Len returns the row count (base snapshot plus outstanding tail).
func (s *Synced[V]) Len() int {
	st := s.state.Load()
	return st.ix.n + st.tailLen
}

// K returns the vector count.
func (s *Synced[V]) K() int { return s.state.Load().ix.K() }

// Cardinality returns the number of mapped values.
func (s *Synced[V]) Cardinality() int { return s.state.Load().ix.Cardinality() }

// Epoch returns the live epoch number; it advances exactly once per
// applied re-encoding flip.
func (s *Synced[V]) Epoch() uint64 { return s.state.Load().epoch }

// Mapping returns a copy of the current mapping table.
func (s *Synced[V]) Mapping() *encoding.Mapping[V] { return s.state.Load().ix.Mapping() }

// Values returns the domain values ordered by code.
func (s *Synced[V]) Values() []V { return s.state.Load().ix.Values() }

// TheoreticalMinVectors returns the Theorem 2.2/2.3 minimum vectors any
// encoding could read for a delta-value selection (see Index).
func (s *Synced[V]) TheoreticalMinVectors(delta int) int {
	return s.state.Load().ix.TheoreticalMinVectors(delta)
}

// SetSelectionObserver installs (or removes) the selection observer by
// publishing a fresh snapshot; in-flight reads against the previous
// snapshot report to the previous observer.
func (s *Synced[V]) SetSelectionObserver(o SelectionObserver[V]) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	st := s.state.Load()
	nix := publishableClone(st.ix)
	nix.observer = o
	s.state.Store(&epochState[V]{ix: nix, tail: st.tail, tailLen: st.tailLen, epoch: st.epoch, encGen: st.encGen})
}

// PlanReencode prices a re-encoding for a weighted predicate workload
// against the current state (planning only reads the snapshot's
// mapping). The rebuild term covers the full logical length including
// the tail. Apply the returned plan live with Reencode.
func (s *Synced[V]) PlanReencode(predicates [][]V, weights []int, searchOpt *encoding.SearchOptions) (*ReencodePlan[V], error) {
	st := s.state.Load()
	plan, err := st.ix.PlanReencode(predicates, weights, searchOpt)
	if plan != nil {
		plan.RebuildVectors = plan.Mapping.K() * (st.ix.n + st.tailLen)
	}
	return plan, err
}

// pushTailLocked appends one code to the writer-owned tail and publishes
// the new state. writeMu must be held. Readers holding older states see
// only their own prefix of the shared backing array, every element of
// which was written before that state was published.
func (s *Synced[V]) pushTailLocked(st *epochState[V], ix *Index[V], code uint32, encGen uint64) {
	s.tailMaster = append(s.tailMaster, uint64(code))
	s.state.Store(&epochState[V]{
		ix:      ix,
		tail:    s.tailMaster,
		tailLen: len(s.tailMaster),
		epoch:   st.epoch,
		encGen:  encGen,
	})
}

// Append adds a tuple. A known value is an O(1) tail publication; an
// unknown value additionally publishes a snapshot clone whose mapping
// covers it (free-code reuse or widening, Section 2.2).
func (s *Synced[V]) Append(v V) error {
	s.writeMu.Lock()
	st := s.state.Load()
	code, ok := st.ix.mapping.CodeOf(v)
	if ok {
		s.pushTailLocked(st, st.ix, code, st.encGen)
	} else {
		nix, ncode, err := expandedClone(st.ix, v)
		if err != nil {
			s.writeMu.Unlock()
			return err
		}
		s.pushTailLocked(st, nix, ncode, st.encGen+1)
	}
	mAppends.Inc()
	s.writeMu.Unlock()
	s.maybeFold()
	return nil
}

// AppendNull adds a NULL tuple.
func (s *Synced[V]) AppendNull() error {
	s.writeMu.Lock()
	st := s.state.Load()
	if st.ix.hasNullCode {
		s.pushTailLocked(st, st.ix, st.ix.nullCode, st.encGen)
	} else {
		nix := nullEnabledClone(st.ix)
		s.pushTailLocked(st, nix, nix.nullCode, st.encGen+1)
	}
	mAppends.Inc()
	s.writeMu.Unlock()
	s.maybeFold()
	return nil
}

// maybeFold folds the tail into the base vectors when it has crossed the
// threshold and no other maintenance is running (TryLock: appends never
// block behind a rebuild).
func (s *Synced[V]) maybeFold() {
	if s.state.Load().tailLen < s.foldThreshold {
		return
	}
	if !s.maintMu.TryLock() {
		return
	}
	defer s.maintMu.Unlock()
	s.foldLocked()
}

// Flush folds any outstanding tail into the base vectors immediately.
func (s *Synced[V]) Flush() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.state.Load().tailLen == 0 {
		return
	}
	s.foldLocked()
}

// materialize builds a fully private Index holding the state's complete
// contents (base snapshot plus tail), with no counter side effects: the
// rows were each counted once when they first landed.
func materialize[V comparable](st *epochState[V]) *Index[V] {
	src := st.ix
	ix := &Index[V]{
		mapping:     src.mapping.Clone(),
		n:           src.n,
		reserveVoid: src.reserveVoid,
		useDC:       src.useDC,
		hasNullCode: src.hasNullCode,
		nullCode:    src.nullCode,
		deleted:     src.deleted,
		observer:    src.observer,
	}
	ix.vectors = make([]*bitvec.Vector, len(src.vectors))
	for i, v := range src.vectors {
		ix.vectors[i] = v.Clone()
	}
	for i := 0; i < st.tailLen; i++ {
		ix.appendCodeQuiet(uint32(st.tail[i]))
	}
	ix.rebuildSources()
	return ix
}

// adoptShape brings a materialized private index up to cur's code space:
// appends that landed after materialization started may have expanded
// the domain, widened the index, or allocated the NULL code, and the
// remainder of cur's tail is encoded under that newer mapping. Mappings
// only grow between epochs, so adopting cur's mapping wholesale keeps
// every already-replayed code valid.
func adoptShape[V comparable](ix, cur *Index[V]) {
	ix.mapping = cur.mapping.Clone()
	ix.hasNullCode = cur.hasNullCode
	ix.nullCode = cur.nullCode
	ix.observer = cur.observer
	for len(ix.vectors) < cur.K() {
		nv := bitvec.New(0)
		nv.Grow(ix.n)
		ix.vectors = append(ix.vectors, nv)
	}
	ix.rebuildSources()
}

// foldLocked materializes the current state and republishes it with an
// empty tail. maintMu must be held; writeMu is taken only for the final
// catch-up and flip, so appends overlap with the bulk copy.
func (s *Synced[V]) foldLocked() {
	st := s.state.Load()
	ix := materialize(st)
	cursor := st.tailLen
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	adoptShape(ix, cur.ix)
	for ; cursor < cur.tailLen; cursor++ {
		ix.appendCodeQuiet(uint32(cur.tail[cursor]))
	}
	s.tailMaster = nil
	s.state.Store(&epochState[V]{ix: ix, epoch: cur.epoch, encGen: cur.encGen})
	mFolds.Inc()
}

// Delete voids a row. Like all maintenance it rebuilds privately and
// flips: readers in flight keep the pre-delete state.
func (s *Synced[V]) Delete(row int) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	st := s.state.Load()
	ix := materialize(st)
	cursor := st.tailLen
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	adoptShape(ix, cur.ix)
	for ; cursor < cur.tailLen; cursor++ {
		ix.appendCodeQuiet(uint32(cur.tail[cursor]))
	}
	if err := ix.Delete(row); err != nil {
		return err // nothing published; the live state is unchanged
	}
	s.tailMaster = nil
	s.state.Store(&epochState[V]{ix: ix, epoch: cur.epoch, encGen: cur.encGen})
	return nil
}

// WithWriteLock runs fn against a private, fully materialized copy of
// the index and publishes the result if fn succeeds, for compound
// maintenance (bulk loads, serialization of a consistent snapshot,
// in-place re-encoding). Appends are blocked while fn runs; readers are
// not. fn must not call back into the Synced wrapper. On error the
// live state is unchanged.
func (s *Synced[V]) WithWriteLock(fn func(ix *Index[V]) error) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	st := s.state.Load()
	ix := materialize(st)
	cursor := st.tailLen
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	adoptShape(ix, cur.ix)
	for ; cursor < cur.tailLen; cursor++ {
		ix.appendCodeQuiet(uint32(cur.tail[cursor]))
	}
	if err := fn(ix); err != nil {
		return err
	}
	// fn had free rein over the code space; treat the generation as
	// changed so cached programs and prepared selections recompile.
	s.tailMaster = nil
	s.state.Store(&epochState[V]{ix: ix, epoch: cur.epoch, encGen: cur.encGen + 1})
	return nil
}

// WithReadLock runs fn against a consistent read-only view. With no
// outstanding tail that is the live snapshot itself (fn must not mutate
// it or call Index.Eq/EqInto, which populate the memoized cache);
// otherwise fn receives a private materialized copy.
func (s *Synced[V]) WithReadLock(fn func(ix *Index[V]) error) error {
	st := s.state.Load()
	if st.tailLen == 0 {
		return fn(st.ix)
	}
	return fn(materialize(st))
}

// replayTailCode appends one tail code's tuple into the shadow index
// during a live re-encoding. The code is decoded under the epoch it was
// assigned in and re-encoded under the shadow's mapping — the two differ
// by exactly the re-encoding being applied.
func (s *Synced[V]) replayTailCode(shadow *Index[V], cur *epochState[V], code uint32) error {
	mCatchupReplays.Inc()
	if cur.ix.hasNullCode && code == cur.ix.nullCode {
		return shadow.appendNullQuiet()
	}
	v, ok := cur.ix.mapping.ValueOf(code)
	if !ok {
		return fmt.Errorf("core: tail code %b is not in the current mapping", code)
	}
	return shadow.appendValueQuiet(v)
}

// Reencode applies a new encoding live: the base snapshot is rebuilt in
// the background under the new mapping (reads continue against the old
// epoch untouched), appends that land during the rebuild are replayed
// into the shadow in catch-up rounds, and once the outstanding tail is
// short the epochs flip atomically — readers never stall, and the next
// read after the flip runs under the new code assignment. The mapping
// must satisfy Index.Reencode's contract (cover every mapped value,
// keep code 0 free when reserved, leave room for NULL).
func (s *Synced[V]) Reencode(newMapping *encoding.Mapping[V]) (err error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	st0 := s.state.Load()
	_, sp := obs.StartSpan(context.Background(), "ebi.reencode")
	if sp != nil {
		sp.SetAttr("rows", st0.ix.n+st0.tailLen)
		sp.SetAttr("old_k", st0.ix.K())
		sp.SetAttr("new_k", newMapping.K())
		sp.SetAttr("epoch", st0.epoch)
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}

	// Shadow rebuild of the base snapshot. Reads and appends continue.
	shadow, err := st0.ix.reencodedCopy(newMapping)
	if err != nil {
		return err
	}
	s.hook(0)

	// Catch-up: replay appends that landed before or during the rebuild,
	// still without blocking the writer. Each round drains the tail the
	// previous round left; stop when what remains is short enough to
	// replay under the flip lock (or a hot writer has kept us chasing
	// for too many rounds — the final drain is then longer but bounded
	// by what accumulated in one round).
	cursor := 0
	for round := 0; ; round++ {
		cur := s.state.Load()
		if cur.tailLen-cursor <= reencodeFlipTail || round >= reencodeMaxRounds {
			break
		}
		target := cur.tailLen
		for ; cursor < target; cursor++ {
			if err := s.replayTailCode(shadow, cur, uint32(cur.tail[cursor])); err != nil {
				return err
			}
		}
		s.hook(1)
	}
	s.hook(2)

	// Flip: drain the remaining tail and publish the new epoch.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	for ; cursor < cur.tailLen; cursor++ {
		if err := s.replayTailCode(shadow, cur, uint32(cur.tail[cursor])); err != nil {
			return err
		}
	}
	shadow.observer = cur.ix.observer
	s.tailMaster = nil
	s.state.Store(&epochState[V]{ix: shadow, epoch: cur.epoch + 1, encGen: cur.encGen + 1})
	mReencodes.Inc()
	mSwaps.Inc()
	return nil
}

func (s *Synced[V]) hook(stage int) {
	if s.testHook != nil {
		s.testHook(stage)
	}
}

// SyncedPrepared is a compiled IN-selection bound to a Synced index. It
// transparently recompiles when the code space generation changes —
// including across live re-encoding flips, where the same values name
// different codes.
type SyncedPrepared[V comparable] struct {
	s      *Synced[V]
	values []V

	mu       sync.Mutex
	compiled bool
	encGen   uint64
	expr     boolmin.Expr
	prog     *boolmin.Program
	codes    map[uint32]bool
}

// Prepare compiles the selection "A IN values" against the live state.
func (s *Synced[V]) Prepare(values []V) *SyncedPrepared[V] {
	return &SyncedPrepared[V]{s: s, values: append([]V(nil), values...)}
}

// snapshot loads the live state and returns the compiled program and
// tail code set matching its encoding generation, recompiling if stale.
// The returns are immutable locals: a concurrent recompile for a newer
// generation never corrupts an evaluation in flight.
func (p *SyncedPrepared[V]) snapshot() (*epochState[V], *boolmin.Program, map[uint32]bool) {
	st := p.s.state.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.compiled || p.encGen != st.encGen {
		if p.compiled {
			mPreparedRecompiles.Inc()
			if lg := obs.DefaultLogger(); lg.Enabled(obs.LevelDebug) {
				lg.Debug("prepared selection recompiled",
					obs.Int("values", int64(len(p.values))),
					obs.Int("stale_generation", int64(p.encGen)),
					obs.Int("generation", int64(st.encGen)))
			}
		}
		p.expr = st.ix.ExprFor(p.values)
		p.prog = boolmin.Compile(p.expr)
		p.codes = make(map[uint32]bool, len(p.values))
		for _, v := range p.values {
			if c, ok := st.ix.mapping.CodeOf(v); ok {
				p.codes[c] = true
			}
		}
		p.encGen = st.encGen
		p.compiled = true
	} else {
		mProgCacheHits.Inc()
	}
	return st, p.prog, p.codes
}

// Eval evaluates the prepared selection against the live state.
func (p *SyncedPrepared[V]) Eval() (*bitvec.Vector, iostat.Stats) {
	st, prog, codes := p.snapshot()
	rows, stats := st.ix.evalProgram(prog)
	extendTail(st, rows, &stats, func(c uint32) bool { return codes[c] })
	st.ix.observeSelection(p.values, stats)
	return rows, stats
}

// AccessCost returns the number of bitmap vectors an evaluation reads —
// the paper's c_e for this selection under the live encoding.
func (p *SyncedPrepared[V]) AccessCost() int {
	p.snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expr.AccessCost()
}

// String renders the compiled expression in the paper's notation.
func (p *SyncedPrepared[V]) String() string {
	p.snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expr.String()
}
