package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// Synced is a concurrency-safe wrapper around an Index built on an
// epoch/RCU scheme instead of a reader-writer lock: the current state is
// one immutable View — a base Index snapshot plus an append-only tail of
// encoded codes — behind an atomic pointer. Readers load the pointer once
// and evaluate entirely against that view, so they never block and never
// observe a torn write; writers publish a fresh view and the old one is
// reclaimed by the garbage collector once the last reader drops it (GC as
// the grace period).
//
// Appends are O(1) publications: the code lands in the tail and readers
// extend their evaluation across it. The tail is folded into the base
// vectors in the background once it crosses the fold threshold.
// Maintenance operations (folds, Delete, Reencode) rebuild a private copy
// and swap it in atomically; Reencode in particular runs the paper's
// dynamic re-encoding as a background shadow rebuild with catch-up
// replay, so heavy read traffic runs straight through a re-encoding with
// zero stalls. Every read reports iostat.Stats exactly equal to what a
// plain Index holding the same rows would report (see View).
type Synced[V comparable] struct {
	state atomic.Pointer[View[V]]

	// writeMu serializes every state publication (appends, observer
	// swaps, and the final flip of maintenance rebuilds). Readers never
	// take it.
	writeMu sync.Mutex
	// maintMu serializes whole-index maintenance (tail folds, Delete,
	// Reencode) so at most one rebuild runs at a time. It is acquired
	// before writeMu and never the other way around.
	maintMu sync.Mutex

	// tailMaster is the writer-owned backing array of the published
	// tail. Appends extend it in place and re-publish a longer header;
	// readers index only their own view's prefix, which was fully
	// written before that view was published.
	tailMaster []uint64

	// foldThreshold is the tail length at which appends opportunistically
	// fold the tail into the base vectors. Set it before any concurrent
	// use.
	foldThreshold int

	// testHook, when non-nil, is called at fixed points inside Reencode
	// (0: shadow built; 1: after a catch-up round; 2: before taking the
	// flip lock) so tests can inject appends at precise interleavings.
	// Set it before any concurrent use.
	testHook func(stage int)
}

// defaultFoldThreshold is a new Synced index's fold threshold.
const defaultFoldThreshold = 4096

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
	s := &Synced[V]{foldThreshold: defaultFoldThreshold}
	s.state.Store(&View[V]{ix: ix, epoch: 1})
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

// Len returns the row count (base snapshot plus outstanding tail).
func (s *Synced[V]) Len() int { return s.View().Len() }

// K returns the vector count.
func (s *Synced[V]) K() int { return s.View().ix.K() }

// Cardinality returns the number of mapped values.
func (s *Synced[V]) Cardinality() int { return s.View().ix.Cardinality() }

// Epoch returns the live epoch number; it advances exactly once per
// applied re-encoding flip.
func (s *Synced[V]) Epoch() uint64 { return s.View().epoch }

// Values returns the domain values ordered by code.
func (s *Synced[V]) Values() []V { return s.View().Values() }

// TheoreticalMinVectors returns the Theorem 2.2/2.3 minimum vectors any
// encoding could read for a delta-value selection (see Index).
func (s *Synced[V]) TheoreticalMinVectors(delta int) int {
	return s.View().ix.TheoreticalMinVectors(delta)
}

// SetSelectionObserver installs (or removes) the selection observer by
// publishing a fresh snapshot; in-flight reads against the previous
// snapshot report to the previous observer.
func (s *Synced[V]) SetSelectionObserver(o SelectionObserver[V]) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	st := s.state.Load()
	ix := st.ix.clone()
	ix.observer = o
	s.state.Store(&View[V]{ix: ix, tail: st.tail, epoch: st.epoch})
}

// PlanReencode prices a re-encoding for a weighted predicate workload
// against the live snapshot; the rebuild term covers the full logical
// length including the tail. Apply the returned plan live with Reencode.
func (s *Synced[V]) PlanReencode(predicates [][]V, weights []int, searchOpt *encoding.SearchOptions) (*ReencodePlan[V], error) {
	return s.View().PlanReencode(predicates, weights, searchOpt)
}

// pushLocked appends one code to the writer-owned tail and publishes the
// new state over ix, which is st's base or a copy of it whose domain
// covers the code. writeMu must be held. Readers holding older states see
// only their own prefix of the shared backing array, every element of
// which was written before that state was published.
func (s *Synced[V]) pushLocked(st *View[V], ix *Index[V], code uint32) {
	s.tailMaster = append(s.tailMaster, uint64(code))
	s.state.Store(&View[V]{ix: ix, tail: s.tailMaster, epoch: st.epoch})
	mAppends.Inc()
}

// Append adds a tuple. A known value is an O(1) tail publication; a new
// value also publishes a snapshot copy whose mapping covers it (codeFor's
// free-code reuse or widening, Section 2.2).
func (s *Synced[V]) Append(v V) error {
	s.writeMu.Lock()
	st := s.state.Load()
	ix := st.ix
	code, ok := ix.mapping.CodeOf(v)
	if !ok {
		ix = ix.clone()
		var err error
		if code, err = ix.codeFor(v); err != nil {
			s.writeMu.Unlock()
			return err
		}
	}
	s.pushLocked(st, ix, code)
	s.writeMu.Unlock()
	s.maybeFold()
	return nil
}

// AppendNull adds a NULL tuple.
func (s *Synced[V]) AppendNull() error {
	s.writeMu.Lock()
	st := s.state.Load()
	ix := st.ix
	if !ix.hasNullCode {
		ix = ix.clone()
		ix.enableNull()
	}
	s.pushLocked(st, ix, ix.nullCode)
	s.writeMu.Unlock()
	s.maybeFold()
	return nil
}

// maybeFold folds the tail into the base vectors when it has crossed the
// threshold and no other maintenance is running (TryLock: appends never
// block behind a rebuild).
func (s *Synced[V]) maybeFold() {
	if len(s.state.Load().tail) < s.foldThreshold {
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
	if len(s.state.Load().tail) > 0 {
		s.foldLocked()
	}
}

// foldLocked republishes the live state with an empty tail. maintMu must
// be held.
func (s *Synced[V]) foldLocked() {
	_ = s.rebuildLocked(nil) // a fold has no step that can fail
	mFolds.Inc()
}

// Delete voids a row. Like all maintenance it rebuilds privately and
// flips: readers in flight keep the pre-delete state.
func (s *Synced[V]) Delete(row int) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.rebuildLocked(func(ix *Index[V]) error { return ix.Delete(row) })
}

// rebuildLocked materializes the live state into a private index, applies
// fn (when non-nil) and publishes the result with an empty tail. maintMu
// must be held; writeMu is taken only for the final catch-up and flip, so
// appends overlap with the bulk copy. When fn fails nothing is published
// and the live state is unchanged.
func (s *Synced[V]) rebuildLocked(fn func(ix *Index[V]) error) error {
	st := s.state.Load()
	ix := st.materialize()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	ix.catchUp(cur, len(st.tail))
	if fn != nil {
		if err := fn(ix); err != nil {
			return err
		}
	}
	s.tailMaster = nil
	s.state.Store(&View[V]{ix: ix, epoch: cur.epoch})
	return nil
}

// materialize builds a private Index holding the view's complete contents
// (base snapshot plus tail) in the base's code space, with no counter side
// effects: the rows were each counted once when they first landed.
func (v *View[V]) materialize() *Index[V] {
	ix := v.ix.clone()
	ix.vectors = make([]*bitvec.Vector, len(v.ix.vectors))
	for i, vec := range v.ix.vectors {
		ix.vectors[i] = vec.Clone()
	}
	ix.rebuildSources()
	for _, c := range v.tail {
		ix.appendCode(uint32(c))
	}
	return ix
}

// catchUp brings an index materialized from an earlier view of the same
// epoch up to cur: appends that landed since may have expanded the domain,
// widened the index or allocated the NULL code, so the index adopts cur's
// code space — mappings only grow within an epoch, which keeps every
// already-materialized code valid — and then appends cur's tail past the
// first done rows.
func (ix *Index[V]) catchUp(cur *View[V], done int) {
	ix.mapping = cur.ix.mapping.Clone()
	ix.hasNullCode, ix.nullCode = cur.ix.hasNullCode, cur.ix.nullCode
	ix.cs, ix.observer = cur.ix.cs, cur.ix.observer
	for len(ix.vectors) < cur.ix.K() {
		ix.vectors = append(ix.vectors, bitvec.New(ix.n))
	}
	ix.rebuildSources()
	for _, c := range cur.tail[done:] {
		ix.appendCode(uint32(c))
	}
}

// WithReadLock runs fn against a consistent read-only view. With no
// outstanding tail that is the live snapshot itself, which fn must not
// mutate; otherwise fn receives a private materialized copy.
func (s *Synced[V]) WithReadLock(fn func(ix *Index[V]) error) error {
	st := s.state.Load()
	if len(st.tail) == 0 {
		return fn(st.ix)
	}
	return fn(st.materialize())
}

// replayTail appends the tuples of cur's tail past the first done into
// the shadow index of a live re-encoding and returns the new done count.
// Each code is decoded under the epoch it was assigned in and re-encoded
// under the shadow's mapping — the two differ by exactly the re-encoding
// being applied.
func replayTail[V comparable](shadow *Index[V], cur *View[V], done int) (int, error) {
	for ; done < len(cur.tail); done++ {
		mCatchupReplays.Inc()
		code := uint32(cur.tail[done])
		if cur.ix.hasNullCode && code == cur.ix.nullCode {
			shadow.appendCode(shadow.enableNull())
			continue
		}
		v, ok := cur.ix.mapping.ValueOf(code)
		if !ok {
			return done, fmt.Errorf("core: tail code %b is not in the current mapping", code)
		}
		c, err := shadow.codeFor(v)
		if err != nil {
			return done, err
		}
		shadow.appendCode(c)
	}
	return done, nil
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
		sp.SetAttr("rows", st0.Len())
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
		if len(cur.tail)-cursor <= reencodeFlipTail || round >= reencodeMaxRounds {
			break
		}
		if cursor, err = replayTail(shadow, cur, cursor); err != nil {
			return err
		}
		s.hook(1)
	}
	s.hook(2)

	// Flip: drain the remaining tail and publish the new epoch.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	if _, err := replayTail(shadow, cur, cursor); err != nil {
		return err
	}
	// The new code space takes the generation after the live one, so
	// every code space the index publishes has its own generation.
	shadow.cs = cur.ix.cs
	shadow.invalidateCache()
	shadow.observer = cur.ix.observer
	s.tailMaster = nil
	s.state.Store(&View[V]{ix: shadow, epoch: cur.epoch + 1})
	mReencodes.Inc()
	mSwaps.Inc()
	return nil
}

func (s *Synced[V]) hook(stage int) {
	if s.testHook != nil {
		s.testHook(stage)
	}
}
