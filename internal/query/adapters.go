package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// ebi adapts an encoded bitmap index over int64 or string values: a plain
// core.Index, a live core.Synced or a core.OrderedIndex. Each leaf reads
// one view of Ix and is rewritten (leaf.go), evaluated and predicted on
// that snapshot, so a Synced index is safe to query while other goroutines
// append or a live re-encoding flips it. The ColumnIndex methods are Leaf
// run sequentially; string columns answer no ranges.
type ebi[V int64 | string, X interface {
	View() *core.View[V]
	TheoreticalMinVectors(delta int) int
}] struct{ Ix X }

type (
	// EBIInt adapts an encoded bitmap index over int64 values.
	EBIInt = ebi[int64, *core.Index[int64]]
	// EBIStr adapts an encoded bitmap index over strings.
	EBIStr = ebi[string, *core.Index[string]]
	// SyncedEBIInt adapts a concurrency-safe encoded bitmap index over
	// int64 values.
	SyncedEBIInt = ebi[int64, *core.Synced[int64]]
	// SyncedEBIStr adapts a concurrency-safe encoded bitmap index over
	// strings — the serving shape ebicli's -apply mode uses, where the
	// drift watcher re-encodes the live index under query traffic.
	SyncedEBIStr = ebi[string, *core.Synced[string]]
	// OrderedEBI adapts an order-preserving encoded bitmap index. Its
	// ranges take core.Range's interval cover like those of any index
	// whose code space is ordered.
	OrderedEBI = ebi[int64, *core.OrderedIndex[int64]]
)

// Eq implements ColumnIndex.
func (a ebi[V, X]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Eq{Val: v}, 1)
}

// In implements ColumnIndex.
func (a ebi[V, X]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), In{Vals: vs}, 1)
}

// Range implements ColumnIndex through core.Range.
func (a ebi[V, X]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.Leaf(context.Background(), Range{Lo: lo, Hi: hi}, 1)
}

// Leaf implements LeafIndex.
func (a ebi[V, X]) Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	return kindOf[V]().leaf(ctx, a.Ix.View(), p, degree)
}

// Describe implements LeafIndex: every operation the rewrite accepts runs
// one fused, segmentable program.
func (a ebi[V, X]) Describe(op Op, delta int) LeafInfo {
	return ebiInfo(kindOf[V]().answers(op), a.Ix.TheoreticalMinVectors(delta))
}

// PredictLeaf implements PredictLeafIndex.
func (a ebi[V, X]) PredictLeaf(p Predicate) (iostat.Stats, uint64, bool) {
	return kindOf[V]().predict(a.Ix.View(), p)
}

// simple adapts a simple bitmap index over int64 or string values; string
// columns answer no ranges.
type simple[V int64 | string] struct{ Ix *simplebitmap.Index[V] }

type (
	// SimpleInt adapts a simple bitmap index over int64 values.
	SimpleInt = simple[int64]
	// SimpleStr adapts a simple bitmap index over strings.
	SimpleStr = simple[string]
)

// Eq implements ColumnIndex.
func (a simple[V]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(kindOf[V]().cell(v))
	return rows, st, nil
}

// In implements ColumnIndex.
func (a simple[V]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(kindOf[V]().values(vs))
	return rows, st, nil
}

// Range ORs one vector per qualifying value: the paper's c_s = δ cost.
func (a simple[V]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	k := kindOf[V]()
	if !k.answers(OpRange) {
		return nil, iostat.Stats{}, ErrUnsupported
	}
	rows, st := a.Ix.In(inRange(a.Ix.Values(), k.bound(lo), k.bound(hi)))
	return rows, st, nil
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

// CompressedSimpleInt adapts a WAH-compressed simple bitmap index over
// int64 values, priced by the same c_s = δ model as the uncompressed form.
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

// Range ORs one vector per indexed value inside [lo, hi], as the
// uncompressed form does.
func (a CompressedSimpleInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(inRange(a.Ix.Values(), lo, hi))
	return rows, st, nil
}

// Leaf implements LeafIndex through the ColumnIndex methods: the index has
// no segmented path.
func (a CompressedSimpleInt) Leaf(_ context.Context, p Predicate, _ int) (*bitvec.Vector, iostat.Stats, error) {
	return columnLeaf(a, p)
}

// Describe implements LeafIndex: In and the interval-probing Range OR
// each compressed operand straight into one dense result, with no
// intermediate vector; Eq is a single-vector decompress with nothing to
// fuse. A simple bitmap has no encoding floor.
func (a CompressedSimpleInt) Describe(op Op, _ int) LeafInfo {
	return LeafInfo{Fused: op != OpEq, MinVectors: -1}
}
