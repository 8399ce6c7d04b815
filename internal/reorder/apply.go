package reorder

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/table"
)

// CheckPermutation verifies perm is a bijection on [0, n): length n,
// every target in range, no target repeated. Builders call it before
// trusting a caller-supplied permutation.
func CheckPermutation(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("reorder: permutation has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n {
			return fmt.Errorf("reorder: perm[%d] = %d out of range [0,%d)", i, p, n)
		}
		if seen[p] {
			return fmt.Errorf("reorder: perm maps two rows to original row %d", p)
		}
		seen[p] = true
	}
	return nil
}

// Permute returns the slice reordered so out[i] = xs[perm[i]]. The
// permutation is not validated; callers holding a Plan already have a
// bijection, others should CheckPermutation first.
func Permute[T any](xs []T, perm []int) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = xs[p]
	}
	return out
}

// PermuteBools is Permute for NULL masks, preserving the nil-means-none
// convention of table.Column.NullMask.
func PermuteBools(mask []bool, perm []int) []bool {
	if mask == nil {
		return nil
	}
	return Permute(mask, perm)
}

// Inverse returns the inverse permutation: inv[old] = new where
// perm[new] = old.
func Inverse(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// MapToOriginal translates a row set over the reordered row space back
// to original row ids: bit i set in rows becomes bit perm[i] in the
// result. This is how a query answered by a reordered index is compared
// against (or returned as) original fact rows. It scans rows a word at a
// time and ORs each mapped bit straight into the result's words. perm
// must be a bijection on [0, rows.Len()), as a Plan's is; MapToOriginal
// panics when the two lengths differ.
func MapToOriginal(rows *bitvec.Vector, perm []int) *bitvec.Vector {
	if rows.Len() != len(perm) {
		panic("reorder: row set and permutation differ in length")
	}
	out := bitvec.New(len(perm))
	dst := out.BlockWords(0, out.Words())
	for wi, w := range rows.BlockWords(0, rows.Words()) {
		base := wi * 64
		for w != 0 {
			p := perm[base+bits.TrailingZeros64(w)]
			dst[p>>6] |= 1 << (uint(p) & 63)
			w &= w - 1
		}
	}
	return out
}

// ApplyTable materializes the permuted table: row i of the result is row
// perm[i] of t, every column, values and NULLs alike.
func ApplyTable(t *table.Table, perm []int) (*table.Table, error) {
	_, sp := obs.StartSpan(context.Background(), "ebi.reorder.apply")
	if sp != nil {
		sp.SetAttr("rows", t.Len())
		defer sp.End()
	}
	start := time.Now()
	if err := CheckPermutation(perm, t.Len()); err != nil {
		return nil, err
	}
	cols := t.Columns()
	fresh := make([]*table.Column, len(cols))
	for i, c := range cols {
		fresh[i] = table.NewColumn(c.Name, c.Kind)
	}
	out, err := table.New(t.Name, fresh...)
	if err != nil {
		return nil, err
	}
	cells := make([]table.Cell, len(cols))
	for _, p := range perm {
		for ci, c := range cols {
			switch {
			case c.IsNull(p):
				cells[ci] = table.NullCell()
			case c.Kind == table.Int64:
				cells[ci] = table.IntCell(c.Int(p))
			default:
				cells[ci] = table.StrCell(c.Str(p))
			}
		}
		if err := out.AppendRow(cells...); err != nil {
			return nil, err
		}
	}
	mApplies.Inc()
	mApplyNS.Add(uint64(time.Since(start).Nanoseconds()))
	mApplyRows.Add(uint64(t.Len()))
	return out, nil
}

// ApplyStar permutes a star schema's fact table and rebinds the original
// dimensions to it. Dimension tables are row-id addressed and unaffected
// by a fact-row permutation: the foreign-key values move with their fact
// rows and keep pointing at the same dimension rows.
func ApplyStar(s *table.Star, perm []int) (*table.Star, error) {
	fact, err := ApplyTable(s.Fact, perm)
	if err != nil {
		return nil, err
	}
	out := table.NewStar(fact)
	for _, fk := range s.DimColumns() {
		if err := out.AddDimension(fk, s.Dimension(fk)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
