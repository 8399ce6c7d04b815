package query

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/table"
)

// LeafIndex is the optional interface an access path implements to answer
// leaf predicates itself rather than through the three ColumnIndex
// methods. Leaf receives the evaluation context — the leaf's trace span
// rides it, so parallel workers and page fetches nest under the leaf — and
// the degree the planner's parallel gate picked (1 = sequential). It must
// return the exact rows and stats the ColumnIndex methods would, or
// ErrUnsupported. Describe states what the path does for an operation
// without running it.
type LeafIndex interface {
	Leaf(ctx context.Context, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error)
	Describe(op Op, delta int) LeafInfo
}

// LeafInfo is what an access path states about one leaf operation of
// selection width delta.
type LeafInfo struct {
	// Fused reports that the operation evaluates through the fused
	// single-pass kernel (internal/boolmin Program) whenever it reaches
	// the index, degenerate empty selections included. The planner
	// surfaces it as Choice.Fused, EXPLAIN's " fused" suffix, and plan
	// JSON.
	Fused bool
	// Parallel reports that the operation runs segmented when Leaf is
	// handed a degree above one. The parallel gate engages only for such
	// operations, so EXPLAIN's par=N prediction matches execution.
	Parallel bool
	// MinVectors is the Theorem 2.2/2.3 minimum number of vectors any
	// encoding could read for the selection — the floor Choice.Excess is
	// measured from — or -1 when the path has no encoding to decay.
	MinVectors int
}

// describe returns what ix states about op, or the plain-path default —
// sequential, not fused, no floor — when it is no LeafIndex.
func describe(ix ColumnIndex, op Op, delta int) LeafInfo {
	if li, ok := ix.(LeafIndex); ok {
		return li.Describe(op, delta)
	}
	return LeafInfo{MinVectors: -1}
}

// excess returns the vectors read beyond the floor, or 0 without one.
func (li LeafInfo) excess(vectorsRead int) int {
	if li.MinVectors < 0 || vectorsRead <= li.MinVectors {
		return 0
	}
	return vectorsRead - li.MinVectors
}

// evalLeaf is the one leaf entry point below the walker: ix answers p
// through Leaf when it is a LeafIndex, through its ColumnIndex methods
// otherwise.
func evalLeaf(ctx context.Context, ix ColumnIndex, p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	if li, ok := ix.(LeafIndex); ok {
		return li.Leaf(ctx, p, degree)
	}
	return columnLeaf(ix, p)
}

// columnLeaf answers a leaf through the ColumnIndex methods.
func columnLeaf(ix ColumnIndex, p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	switch p := p.(type) {
	case Eq:
		return ix.Eq(p.Val)
	case In:
		return ix.In(p.Vals)
	case Range:
		return ix.Range(p.Lo, p.Hi)
	}
	return nil, iostat.Stats{}, fmt.Errorf("query: %T is not a leaf predicate", p)
}

// ebiIndex is what the shared encoded-bitmap rewrite evaluates and
// predicts through: a core.Index, or one core.View of a Synced index so
// that a leaf's rewrite and evaluation read the same snapshot.
type ebiIndex[V comparable] interface {
	IsNull() (*bitvec.Vector, iostat.Stats)
	Eq(v V) (*bitvec.Vector, iostat.Stats)
	In(values []V) (*bitvec.Vector, iostat.Stats)
	InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats)
	Values() []V
	PredictIsNullStats() iostat.Stats
	PredictSelectionStats(values []V) iostat.Stats
}

// ebiSel is a leaf predicate rewritten for an encoded bitmap index.
type ebiSel[V comparable] struct {
	null bool // IS NULL
	eq   bool // the single value v, through the index's cached program
	v    V
	vals []V // the IN list otherwise
}

// list returns the selected values as one IN list.
func (s ebiSel[V]) list() []V {
	if s.eq {
		return []V{s.v}
	}
	return s.vals
}

// run evaluates the selection on ix; a degree above one segments it.
func (s ebiSel[V]) run(ctx context.Context, ix ebiIndex[V], degree int) (*bitvec.Vector, iostat.Stats) {
	switch {
	case s.null:
		return ix.IsNull()
	case degree > 1:
		return ix.InParallel(s.list(), degree, obs.SpanFromContext(ctx))
	case s.eq:
		return ix.Eq(s.v)
	}
	return ix.In(s.vals)
}

// predict returns the Stats run reports, from the encoding alone.
func (s ebiSel[V]) predict(ix ebiIndex[V]) iostat.Stats {
	if s.null {
		return ix.PredictIsNullStats()
	}
	return ix.PredictSelectionStats(s.list())
}

// cellKind is how leaf rewrites read one column value type: cell
// extracts a literal's value, and between tests a value against a range
// — nil for string columns, which answer no ranges.
type cellKind[V comparable] struct {
	cell    func(table.Cell) V
	between func(v V, lo, hi int64) bool
}

var (
	intKind = cellKind[int64]{
		cell:    func(c table.Cell) int64 { return c.I },
		between: func(v, lo, hi int64) bool { return v >= lo && v <= hi },
	}
	strKind = cellKind[string]{cell: func(c table.Cell) string { return c.S }}
)

// values returns an IN list's literals as column values. NULL cells drop
// out: IS NULL is a separate predicate.
func (k cellKind[V]) values(cells []table.Cell) []V {
	vals := make([]V, 0, len(cells))
	for _, c := range cells {
		if !c.Null {
			vals = append(vals, k.cell(c))
		}
	}
	return vals
}

// inRange returns the domain values inside [lo, hi] (int columns only).
func (k cellKind[V]) inRange(domain []V, lo, hi int64) []V {
	var vals []V
	for _, v := range domain {
		if k.between(v, lo, hi) {
			vals = append(vals, v)
		}
	}
	return vals
}

// rewrite is the one leaf rewrite every encoded-bitmap adapter evaluates
// and predicts through: Eq against NULL is IS NULL, Eq is the index's
// cached single-value selection, In drops NULL cells, and an int Range is
// an IN list over the mapped domain — the paper's discrete-domains
// rewriting.
func (k cellKind[V]) rewrite(ix ebiIndex[V], p Predicate) (ebiSel[V], error) {
	switch p := p.(type) {
	case Eq:
		return ebiSel[V]{null: p.Val.Null, eq: true, v: k.cell(p.Val)}, nil
	case In:
		return ebiSel[V]{vals: k.values(p.Vals)}, nil
	case Range:
		if k.between == nil {
			return ebiSel[V]{}, ErrUnsupported
		}
		return ebiSel[V]{vals: k.inRange(ix.Values(), p.Lo, p.Hi)}, nil
	}
	return ebiSel[V]{}, fmt.Errorf("query: %T is not a leaf predicate", p)
}

// leaf answers p on ix through the rewrite.
func (k cellKind[V]) leaf(ctx context.Context, ix ebiIndex[V], p Predicate, degree int) (*bitvec.Vector, iostat.Stats, error) {
	s, err := k.rewrite(ix, p)
	if err != nil {
		return nil, iostat.Stats{}, err
	}
	rows, st := s.run(ctx, ix, degree)
	return rows, st, nil
}

// predict returns the Stats leaf would report for p, or ok=false when the
// rewrite refuses p.
func (k cellKind[V]) predict(ix ebiIndex[V], p Predicate) (iostat.Stats, bool) {
	s, err := k.rewrite(ix, p)
	if err != nil {
		return iostat.Stats{}, false
	}
	return s.predict(ix), true
}

// ebiInfo describes an encoded-bitmap path: kernel reports that the
// operation runs one fused, segmentable program; floor is the index's
// Theorem 2.2/2.3 minimum for the selection.
func ebiInfo(kernel bool, floor int) LeafInfo {
	return LeafInfo{Fused: kernel, Parallel: kernel, MinVectors: floor}
}
