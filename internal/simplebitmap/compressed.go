package simplebitmap

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/compress"
	"repro/internal/iostat"
	"repro/internal/reorder"
)

// CompressedIndex is a simple bitmap index whose per-value vectors are
// stored WAH-compressed — the "compression techniques (e.g., run-length)
// for simple bitmap indexes" remedy Section 4 mentions for the sparsity
// problem. It answers the same queries as Index; the benchmark harness
// uses it to quantify what compression buys (space) and costs (slower
// Boolean operations) compared with encoding the domain.
//
// The index is built once from a column; it does not support appends (a
// compressed vector is not efficiently extendable in place, which is
// itself part of the tradeoff story).
type CompressedIndex[V comparable] struct {
	vectors map[V]*compress.Vector
	nulls   *compress.Vector
	n       int
}

// BuildCompressed constructs a compressed simple bitmap index.
func BuildCompressed[V comparable](column []V, isNull []bool) (*CompressedIndex[V], error) {
	plain, err := Build(column, isNull)
	if err != nil {
		return nil, err
	}
	ix := &CompressedIndex[V]{
		vectors: make(map[V]*compress.Vector, plain.Cardinality()),
		n:       plain.Len(),
	}
	for _, v := range plain.Values() {
		ix.vectors[v] = compress.Compress(plain.VectorFor(v))
	}
	nulls, _ := plain.IsNull()
	ix.nulls = compress.Compress(nulls)
	return ix, nil
}

// BuildCompressedReordered is BuildCompressed over the permuted row
// order (see BuildReordered). Reordering is where WAH pays: the sorted
// row order turns each value's bitmap into a handful of fills.
func BuildCompressedReordered[V comparable](column []V, isNull []bool, perm []int) (*CompressedIndex[V], error) {
	if isNull != nil && len(isNull) != len(column) {
		return nil, fmt.Errorf("simplebitmap: column has %d rows but isNull has %d", len(column), len(isNull))
	}
	if err := reorder.CheckPermutation(perm, len(column)); err != nil {
		return nil, err
	}
	return BuildCompressed(reorder.Permute(column, perm), reorder.PermuteBools(isNull, perm))
}

// Len returns the number of rows.
func (ix *CompressedIndex[V]) Len() int { return ix.n }

// Cardinality returns the number of distinct indexed values.
func (ix *CompressedIndex[V]) Cardinality() int { return len(ix.vectors) }

// Values returns the distinct indexed values in an unspecified order.
func (ix *CompressedIndex[V]) Values() []V {
	out := make([]V, 0, len(ix.vectors))
	for v := range ix.vectors {
		out = append(out, v)
	}
	return out
}

// SizeBytes returns the compressed payload size.
func (ix *CompressedIndex[V]) SizeBytes() int {
	total := ix.nulls.SizeBytes()
	for _, v := range ix.vectors {
		total += v.SizeBytes()
	}
	return total
}

// CompressionRatio returns compressed size over the plain index's vector
// payload.
func (ix *CompressedIndex[V]) CompressionRatio() float64 {
	raw := (len(ix.vectors) + 1) * ((ix.n + 63) / 64 * 8)
	if raw == 0 {
		return 1
	}
	return float64(ix.SizeBytes()) / float64(raw)
}

// Eq returns the decompressed row set for value v.
func (ix *CompressedIndex[V]) Eq(v V) (*bitvec.Vector, iostat.Stats) {
	var st iostat.Stats
	cv, ok := ix.vectors[v]
	if !ok {
		return bitvec.New(ix.n), st
	}
	st.VectorsRead = 1
	st.WordsRead = cv.Words()
	return cv.Decompress(), st
}

// In ORs the listed values' vectors straight into one dense result
// through compress.Vector.OrInto, which skips zero fills and sets one
// fills a word at a time, so the work follows the compressed size. It
// charges c_s = δ compressed reads and δ-1 Boolean operations, as a
// pairwise compressed OR would.
func (ix *CompressedIndex[V]) In(values []V) (*bitvec.Vector, iostat.Stats) {
	out := bitvec.New(ix.n)
	read, words := 0, 0
	for _, v := range values {
		if cv, ok := ix.vectors[v]; ok {
			cv.OrInto(out)
			read++
			words += cv.Words()
		}
	}
	return out, iostat.Stats{VectorsRead: read, WordsRead: words, BoolOps: max(read-1, 0)}
}

// IsNull returns the NULL row set.
func (ix *CompressedIndex[V]) IsNull() (*bitvec.Vector, iostat.Stats) {
	return ix.nulls.Decompress(), iostat.Stats{VectorsRead: 1, WordsRead: ix.nulls.Words()}
}

// CountEq returns the row count for a value without decompressing — the
// COUNT(*) fast path compressed bitmaps are known for.
func (ix *CompressedIndex[V]) CountEq(v V) (int, error) {
	cv, ok := ix.vectors[v]
	if !ok {
		return 0, nil
	}
	if cv.Len() != ix.n {
		return 0, fmt.Errorf("simplebitmap: corrupted compressed vector")
	}
	return cv.Count(), nil
}
