package core

import (
	"cmp"
	"fmt"
	"io"
	"sort"
)

// SaveOrdered persists an ordered encoded bitmap index. The on-disk format
// is exactly the inner index's: the total-order preserving property means
// the sorted domain is recoverable by ordering values by code, so no
// extra state is written.
func SaveOrdered[V cmp.Ordered](w io.Writer, oi *OrderedIndex[V], codec ValueCodec[V]) error {
	return Save(w, oi.ix, codec)
}

// LoadOrdered reads an index written by SaveOrdered (or any Save of an
// order-preserving index) and reconstructs the ordered wrapper,
// validating that codes really do ascend with values.
func LoadOrdered[V cmp.Ordered](r io.Reader, codec ValueCodec[V]) (*OrderedIndex[V], error) {
	ix, err := Load[V](r, codec)
	if err != nil {
		return nil, err
	}
	return OrderedFrom(ix)
}

// OrderedFrom wraps an existing index whose mapping is total-order
// preserving. It fails when the mapping is not order preserving — the
// interval-cover range algorithm would silently return wrong rows
// otherwise.
func OrderedFrom[V cmp.Ordered](ix *Index[V]) (*OrderedIndex[V], error) {
	sorted := ix.mapping.Values() // ordered by code
	for i := 1; i < len(sorted); i++ {
		if !(sorted[i-1] < sorted[i]) {
			return nil, fmt.Errorf("core: mapping is not total-order preserving (%v before %v)",
				sorted[i-1], sorted[i])
		}
	}
	// Defensive: Values() is code-ordered; assert it is also value-sorted
	// (the check above) and normalize.
	out := append([]V(nil), sorted...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return &OrderedIndex[V]{ix: ix, sorted: out}, nil
}
