package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/projidx"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// The encoded-bitmap adapters answer every leaf through the shared
// rewrite in leaf.go; their ColumnIndex methods are Leaf run sequentially.

// EBIInt adapts an encoded bitmap index over int64 values.
type EBIInt struct{ Ix *core.Index[int64] }

// Eq implements ColumnIndex.
func (a EBIInt) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a EBIInt) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range implements ColumnIndex as an IN list over the mapped domain.
func (a EBIInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Range{Lo: lo, Hi: hi}, 1)
}

// Leaf implements LeafIndex.
func (a EBIInt) Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	return intKind.leaf(ctx, a.Ix, p, degree)
}

// Describe implements LeafIndex: Eq, In and the Range rewrite each run one
// fused, segmentable program.
func (a EBIInt) Describe(op Op, delta int) LeafInfo {
	return ebiInfo(true, a.Ix.TheoreticalMinVectors(delta))
}

// PredictLeafStats implements PredictLeafIndex.
func (a EBIInt) PredictLeafStats(p Predicate) (iostat.Stats, bool) { return intKind.predict(a.Ix, p) }

// PredictGen implements PredictLeafIndex.
func (a EBIInt) PredictGen() uint64 { return a.Ix.PredictGen() }

// EBIStr adapts an encoded bitmap index over string values; ranges are
// unsupported.
type EBIStr struct{ Ix *core.Index[string] }

// Eq implements ColumnIndex.
func (a EBIStr) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a EBIStr) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range is unsupported on string attributes.
func (a EBIStr) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return nil, iostat.Stats{}, ErrUnsupported
}

// Leaf implements LeafIndex.
func (a EBIStr) Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	return strKind.leaf(ctx, a.Ix, p, degree)
}

// Describe implements LeafIndex: Eq and In are fused and segmentable.
func (a EBIStr) Describe(op Op, delta int) LeafInfo {
	return ebiInfo(op != OpRange, a.Ix.TheoreticalMinVectors(delta))
}

// PredictLeafStats implements PredictLeafIndex. Range has no analytic
// model: the adapter refuses it and the executor's scan fallback depends
// on the table, not the encoding.
func (a EBIStr) PredictLeafStats(p Predicate) (iostat.Stats, bool) { return strKind.predict(a.Ix, p) }

// PredictGen implements PredictLeafIndex.
func (a EBIStr) PredictGen() uint64 { return a.Ix.PredictGen() }

// OrderedEBI adapts an order-preserving encoded bitmap index, answering
// ranges with the MSB-first comparison pass.
type OrderedEBI struct{ Ix *core.OrderedIndex[int64] }

// Eq implements ColumnIndex.
func (a OrderedEBI) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a OrderedEBI) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range implements ColumnIndex.
func (a OrderedEBI) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.Range(lo, hi)
	return rows, st, nil
}

// Leaf implements LeafIndex: Eq and In go through the shared rewrite on
// the wrapped index; a range is the MSB-first pass, always sequential.
func (a OrderedEBI) Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	if r, ok := p.(Range); ok {
		return a.Range(r.Lo, r.Hi)
	}
	return intKind.leaf(ctx, a.Ix.Index(), p, degree)
}

// Describe implements LeafIndex: the MSB-first comparison pass is stateful
// across vectors, so ranges are neither fused nor segmented.
func (a OrderedEBI) Describe(op Op, delta int) LeafInfo {
	return ebiInfo(op != OpRange, a.Ix.Index().TheoreticalMinVectors(delta))
}

// PredictLeafStats implements PredictLeafIndex for Eq and In. The
// MSB-first range pass is data-independent too but not program-compiled;
// it is out of scope here.
func (a OrderedEBI) PredictLeafStats(p Predicate) (iostat.Stats, bool) {
	if _, ok := p.(Range); ok {
		return iostat.Stats{}, false
	}
	return intKind.predict(a.Ix.Index(), p)
}

// PredictGen implements PredictLeafIndex.
func (a OrderedEBI) PredictGen() uint64 { return a.Ix.Index().PredictGen() }

// SyncedEBIInt adapts a concurrency-safe encoded bitmap index over int64
// values; each leaf is rewritten, evaluated and predicted on one snapshot
// view, so it is safe to query while other goroutines append or a live
// re-encoding flips.
type SyncedEBIInt struct{ Ix *core.Synced[int64] }

// Eq implements ColumnIndex.
func (a SyncedEBIInt) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a SyncedEBIInt) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range implements ColumnIndex as an IN list over the mapped domain.
func (a SyncedEBIInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Range{Lo: lo, Hi: hi}, 1)
}

// Leaf implements LeafIndex.
func (a SyncedEBIInt) Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	return intKind.leaf(ctx, a.Ix.View(), p, degree)
}

// Describe implements LeafIndex, as for EBIInt.
func (a SyncedEBIInt) Describe(op Op, delta int) LeafInfo {
	return ebiInfo(true, a.Ix.TheoreticalMinVectors(delta))
}

// PredictLeafStats implements PredictLeafIndex.
func (a SyncedEBIInt) PredictLeafStats(p Predicate) (iostat.Stats, bool) {
	return intKind.predict(a.Ix.View(), p)
}

// PredictGen implements PredictLeafIndex.
func (a SyncedEBIInt) PredictGen() uint64 { return a.Ix.PredictGen() }

// SyncedEBIStr adapts a concurrency-safe encoded bitmap index over
// string values — the serving shape ebicli's -apply mode uses, where the
// drift watcher re-encodes the live index under query traffic.
type SyncedEBIStr struct{ Ix *core.Synced[string] }

// Eq implements ColumnIndex.
func (a SyncedEBIStr) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a SyncedEBIStr) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range is unsupported on string attributes.
func (a SyncedEBIStr) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return nil, iostat.Stats{}, ErrUnsupported
}

// Leaf implements LeafIndex.
func (a SyncedEBIStr) Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	return strKind.leaf(ctx, a.Ix.View(), p, degree)
}

// Describe implements LeafIndex, as for EBIStr.
func (a SyncedEBIStr) Describe(op Op, delta int) LeafInfo {
	return ebiInfo(op != OpRange, a.Ix.TheoreticalMinVectors(delta))
}

// PredictLeafStats implements PredictLeafIndex.
func (a SyncedEBIStr) PredictLeafStats(p Predicate) (iostat.Stats, bool) {
	return strKind.predict(a.Ix.View(), p)
}

// PredictGen implements PredictLeafIndex.
func (a SyncedEBIStr) PredictGen() uint64 { return a.Ix.PredictGen() }

// SimpleInt adapts a simple bitmap index over int64 values.
type SimpleInt struct{ Ix *simplebitmap.Index[int64] }

// Eq implements ColumnIndex.
func (a SimpleInt) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(v.I)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a SimpleInt) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(intKind.values(vs))
	return rows, st, nil
}

// Range ORs one vector per qualifying value: the paper's c_s = δ cost.
func (a SimpleInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(intKind.inRange(a.Ix.Values(), lo, hi))
	return rows, st, nil
}

// SimpleStr adapts a simple bitmap index over strings.
type SimpleStr struct{ Ix *simplebitmap.Index[string] }

// Eq implements ColumnIndex.
func (a SimpleStr) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(v.S)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a SimpleStr) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(strKind.values(vs))
	return rows, st, nil
}

// Range is unsupported on string attributes.
func (a SimpleStr) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return nil, iostat.Stats{}, ErrUnsupported
}

// BSIAdapter adapts a bit-sliced index over non-negative int64 keys.
type BSIAdapter struct{ Ix *bsi.Index }

// Eq implements ColumnIndex.
func (a BSIAdapter) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null || v.I < 0 {
		return bitvec.New(a.Ix.Len()), iostat.Stats{}, nil
	}
	rows, st := a.Ix.Eq(uint64(v.I))
	return rows, st, nil
}

// In ORs per-value equality probes.
func (a BSIAdapter) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return orProbes(a.Ix.Len(), vs, a.Ix.Eq)
}

// Range implements ColumnIndex via the O'Neil–Quass slice algorithm.
func (a BSIAdapter) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	if hi < 0 {
		return bitvec.New(a.Ix.Len()), iostat.Stats{}, nil
	}
	if lo < 0 {
		lo = 0
	}
	rows, st := a.Ix.Range(uint64(lo), uint64(hi))
	return rows, st, nil
}

// BTreeAdapter adapts the value-list B-tree baseline.
type BTreeAdapter struct {
	Ix    *btree.Tree
	NRows int
}

// Eq implements ColumnIndex.
func (a BTreeAdapter) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null || v.I < 0 {
		return bitvec.New(a.NRows), iostat.Stats{}, nil
	}
	rows, st := a.Ix.Eq(uint64(v.I), a.NRows)
	return rows, st, nil
}

// In ORs per-value tree probes.
func (a BTreeAdapter) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return orProbes(a.NRows, vs, func(v uint64) (*bitvec.Vector, iostat.Stats) { return a.Ix.Eq(v, a.NRows) })
}

// orProbes answers an IN list over n rows by ORing one point probe per
// literal; NULL and negative literals match nothing on unsigned keys.
func orProbes(n int, vs []table.Cell, probe func(uint64) (*bitvec.Vector, iostat.Stats)) (*bitvec.Vector, iostat.Stats, error) {
	out := bitvec.New(n)
	var st iostat.Stats
	for _, v := range vs {
		if v.Null || v.I < 0 {
			continue
		}
		rows, s := probe(uint64(v.I))
		st.Add(s)
		out.Or(rows)
		st.BoolOps++
	}
	return out, st, nil
}

// Range implements ColumnIndex.
func (a BTreeAdapter) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	if hi < 0 {
		return bitvec.New(a.NRows), iostat.Stats{}, nil
	}
	if lo < 0 {
		lo = 0
	}
	rows, st := a.Ix.Range(uint64(lo), uint64(hi), a.NRows)
	return rows, st, nil
}

// ProjAdapter adapts a projection index over int64 values.
type ProjAdapter struct{ Ix *projidx.Index[int64] }

// Eq implements ColumnIndex.
func (a ProjAdapter) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		return bitvec.New(a.Ix.Len()), iostat.Stats{}, nil
	}
	rows, st := a.Ix.Eq(v.I)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a ProjAdapter) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(intKind.values(vs))
	return rows, st, nil
}

// Range implements ColumnIndex.
func (a ProjAdapter) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.Range(lo, hi)
	return rows, st, nil
}

// CompressedSimpleInt adapts a WAH-compressed simple bitmap index over
// int64 values. The compressed index does not expose its value domain, so
// Range enumerates the integer interval itself — fine for the narrow
// domains the compressed index targets, and priced by the same c_s = δ
// model as the uncompressed form.
type CompressedSimpleInt struct {
	Ix *simplebitmap.CompressedIndex[int64]
}

// Eq implements ColumnIndex.
func (a CompressedSimpleInt) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(v.I)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a CompressedSimpleInt) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(intKind.values(vs))
	return rows, st, nil
}

// Range probes every integer in [lo, hi]; values outside the indexed
// domain contribute nothing.
func (a CompressedSimpleInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	var vals []int64
	for v := lo; v <= hi; v++ {
		vals = append(vals, v)
	}
	rows, st := a.Ix.In(vals)
	return rows, st, nil
}

// Leaf implements LeafIndex through the ColumnIndex methods: the index has
// no segmented path.
func (a CompressedSimpleInt) Leaf(_ context.Context, p Predicate, _ int) (*bitvec.Vector, iostat.Stats, error) {
	return columnLeaf(a, p)
}

// Describe implements LeafIndex: In and the interval-probing Range OR
// their operands in one fused pass over compressed word streams; Eq is a
// single-vector decompress with nothing to fuse. A simple bitmap has no
// encoding floor.
func (a CompressedSimpleInt) Describe(op Op, _ int) LeafInfo {
	return LeafInfo{Fused: op != OpEq, MinVectors: -1}
}
