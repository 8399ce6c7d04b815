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

// pagedLeaf answers p on a paged index through the shared rewrite: IS NULL
// reads the wrapped index directly, value selections fault their vectors'
// pages first, with the fetch attributed to the span in ctx. The buffer
// cache is single-threaded, so paged leaves always run sequentially.
func pagedLeaf[V comparable](ctx context.Context, k cellKind[V], px *pagestore.PagedIndex[V], p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	s, err := k.rewrite(px.Index(), p)
	if err != nil {
		return nil, iostat.Stats{}, err
	}
	if s.null {
		rows, st := px.Index().IsNull()
		return rows, st, nil
	}
	rows, st, _ := px.InContext(ctx, s.list())
	return rows, st, nil
}

// PagedEBIInt adapts a page-charged encoded bitmap index over int64
// values: every selection faults its vectors' page runs through the
// buffer cache (and heatmap) before evaluating.
type PagedEBIInt struct{ Ix *pagestore.PagedIndex[int64] }

// Eq implements ColumnIndex.
func (a PagedEBIInt) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a PagedEBIInt) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range implements ColumnIndex as an IN list over the mapped domain.
func (a PagedEBIInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Range{Lo: lo, Hi: hi}, 1)
}

// Leaf implements LeafIndex.
func (a PagedEBIInt) Leaf(ctx context.Context, p Predicate, _ int) (*bitvec.Vector, iostat.Stats, error) {
	return pagedLeaf(ctx, intKind, a.Ix, p)
}

// Describe implements LeafIndex: paged leaves run sequentially and are
// not flagged fused; the floor is the wrapped index's.
func (a PagedEBIInt) Describe(op Op, delta int) LeafInfo {
	return LeafInfo{MinVectors: a.Ix.Index().TheoreticalMinVectors(delta)}
}

// PageStats implements PageStatsIndex with the cache's cumulative
// counters.
func (a PagedEBIInt) PageStats() (hits, misses int) {
	s := a.Ix.Cache().Stats()
	return s.Hits, s.Misses
}

// PagedEBIStr is PagedEBIInt over string values; ranges are
// unsupported, like EBIStr.
type PagedEBIStr struct{ Ix *pagestore.PagedIndex[string] }

// Eq implements ColumnIndex.
func (a PagedEBIStr) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a PagedEBIStr) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range is unsupported on string attributes.
func (a PagedEBIStr) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return nil, iostat.Stats{}, ErrUnsupported
}

// Leaf implements LeafIndex.
func (a PagedEBIStr) Leaf(ctx context.Context, p Predicate, _ int) (*bitvec.Vector, iostat.Stats, error) {
	return pagedLeaf(ctx, strKind, a.Ix, p)
}

// Describe implements LeafIndex, as for PagedEBIInt.
func (a PagedEBIStr) Describe(op Op, delta int) LeafInfo {
	return LeafInfo{MinVectors: a.Ix.Index().TheoreticalMinVectors(delta)}
}

// PageStats implements PageStatsIndex.
func (a PagedEBIStr) PageStats() (hits, misses int) {
	s := a.Ix.Cache().Stats()
	return s.Hits, s.Misses
}
