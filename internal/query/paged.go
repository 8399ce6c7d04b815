package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// PageStatsIndex is the optional capability interface for access paths
// backed by a page cache. The planner diffs PageStats around each leaf
// to fold per-leaf page hits and misses into EXPLAIN ANALYZE.
type PageStatsIndex interface {
	PageStats() (hits, misses int)
}

// pageStats reads an index's cumulative buffer-cache counters, or zeros
// when the index has no page cache behind it.
func pageStats(ix ColumnIndex) (hits, misses int) {
	if psi, ok := ix.(PageStatsIndex); ok {
		return psi.PageStats()
	}
	return 0, 0
}

// pagedEBI adapts a page-charged encoded bitmap index over int64 or
// string values: every value selection faults its vectors' page runs
// through the buffer cache (and heatmap) before evaluating. The rewrite
// reads the wrapped index's view, IS NULL evaluates on it directly, and
// the page fetch is attributed to the span in the leaf's context. The
// buffer cache is single-threaded, so paged leaves always run
// sequentially. String columns answer no ranges.
type pagedEBI[V int64 | string] struct{ Ix *pagestore.PagedIndex[V] }

type (
	// PagedEBIInt adapts a page-charged encoded bitmap index over int64
	// values.
	PagedEBIInt = pagedEBI[int64]
	// PagedEBIStr adapts a page-charged encoded bitmap index over strings.
	PagedEBIStr = pagedEBI[string]
)

// Eq implements ColumnIndex.
func (a pagedEBI[V]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a pagedEBI[V]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range implements ColumnIndex as an IN list over the mapped domain.
func (a pagedEBI[V]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Range{Lo: lo, Hi: hi}, 1)
}

// Leaf implements LeafIndex.
func (a pagedEBI[V]) Leaf(ctx context.Context, p Predicate, _ int) (*bitvec.Vector, iostat.Stats, error) {
	view := a.Ix.Index().View()
	s, err := kindOf[V]().rewrite(p)
	if err != nil {
		return nil, iostat.Stats{}, err
	}
	if s.null {
		rows, st := view.IsNull()
		return rows, st, nil
	}
	vals := s.list()
	if s.rng {
		vals = inRange(view.Values(), s.v, s.hi)
	}
	rows, st, _ := a.Ix.InContext(ctx, vals)
	return rows, st, nil
}

// Describe implements LeafIndex: paged leaves run sequentially and are
// not flagged fused; the floor is the wrapped index's.
func (a pagedEBI[V]) Describe(op Op, delta int) LeafInfo {
	return LeafInfo{MinVectors: a.Ix.Index().TheoreticalMinVectors(delta)}
}

// PageStats implements PageStatsIndex with the cache's cumulative
// counters.
func (a pagedEBI[V]) PageStats() (hits, misses int) {
	s := a.Ix.Cache().Stats()
	return s.Hits, s.Misses
}
