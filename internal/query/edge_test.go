package query

import (
	"testing"

	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/table"
)

func btreeBuild(col []uint64) *btree.Tree { return btree.Build(col, 8) }

func TestBSIAdapterNegativeValues(t *testing.T) {
	a := BSIAdapter{Ix: bsi.Build([]uint64{1, 2, 3})}
	rows, _, err := a.Eq(table.IntCell(-5))
	if err != nil || rows.Any() {
		t.Fatal("negative Eq should be empty")
	}
	rows, _, err = a.Range(-10, -1)
	if err != nil || rows.Any() {
		t.Fatal("all-negative Range should be empty")
	}
	rows, _, err = a.Range(-10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Count() != 2 { // values 1 and 2
		t.Fatalf("clamped Range = %d rows", rows.Count())
	}
	rows, _, err = a.In([]table.Cell{table.IntCell(-1), table.IntCell(2), table.NullCell()})
	if err != nil || rows.Count() != 1 {
		t.Fatal("In should skip negatives and NULLs")
	}
}

func TestBTreeAdapterNegativeValues(t *testing.T) {
	col := []uint64{5, 6}
	a := BTreeAdapter{Ix: btreeBuild(col), NRows: 2}
	rows, _, err := a.Eq(table.IntCell(-5))
	if err != nil || rows.Any() {
		t.Fatal("negative Eq should be empty")
	}
	rows, _, err = a.Range(-3, 5)
	if err != nil || rows.Count() != 1 {
		t.Fatal("clamped Range wrong")
	}
	rows, _, err = a.Range(-3, -1)
	if err != nil || rows.Any() {
		t.Fatal("negative Range should be empty")
	}
	rows, _, err = a.In([]table.Cell{table.NullCell(), table.IntCell(6), table.IntCell(-2)})
	if err != nil || rows.Count() != 1 {
		t.Fatal("In should skip negatives and NULLs")
	}
}

func TestEBIAdapterNullCells(t *testing.T) {
	col := []int64{1, 2}
	isNull := []bool{false, false}
	ix, err := core.Build(col, isNull, &core.Options[int64]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = ix.AppendNull()
	a := EBIInt{Ix: ix}
	rows, _, err := a.Eq(table.NullCell())
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "001" {
		t.Fatalf("Eq(NULL) = %s", rows.String())
	}
	rows, _, err = a.In([]table.Cell{table.NullCell(), table.IntCell(1)})
	if err != nil || rows.String() != "100" {
		t.Fatal("In should skip NULL cells (IS NULL is a separate predicate)")
	}
	// Range over the EBI rewrites to an IN-list over mapped values.
	rows, _, err = a.Range(0, 10)
	if err != nil || rows.Count() != 2 {
		t.Fatalf("Range = %v", rows)
	}
}
