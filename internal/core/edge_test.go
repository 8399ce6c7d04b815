package core

import (
	"bytes"
	"testing"

	"repro/internal/encoding"
)

// NullSupport requested up front reserves a code even before any NULL
// arrives, so later AppendNull cannot widen the index.
func TestNullSupportPreallocated(t *testing.T) {
	ix, err := Build([]string{"a", "b", "c"}, nil, &Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	kBefore := ix.K()
	if err := ix.AppendNull(); err != nil {
		t.Fatal(err)
	}
	if ix.K() != kBefore {
		t.Fatalf("AppendNull widened the index: %d -> %d", kBefore, ix.K())
	}
	nulls, _ := ix.IsNull()
	if nulls.Count() != 1 {
		t.Fatal("NULL row missing")
	}
}

// IsNull on an index without NULL support selects nothing.
func TestIsNullWithoutSupport(t *testing.T) {
	ix, _ := Build([]string{"a"}, nil, nil)
	rows, st := ix.IsNull()
	if rows.Any() || st.VectorsRead != 0 {
		t.Fatal("IsNull without support should be empty and free")
	}
}

// Save/Load of an index built with a workload-optimized encoding keeps
// the encoding's access costs.
func TestSaveLoadKeepsOptimizedEncoding(t *testing.T) {
	col := make([]int, 1000)
	for i := range col {
		col[i] = i % 8
	}
	preds := [][]int{{0, 3, 5, 6}}
	ix, err := Build(col, nil, &Options[int]{Predicates: preds})
	if err != nil {
		t.Fatal(err)
	}
	costBefore := ix.ExprFor(preds[0]).AccessCost()
	var buf bytes.Buffer
	if err := Save(&buf, ix, IntCodec{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[int](&buf, IntCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.ExprFor(preds[0]).AccessCost(); got != costBefore {
		t.Fatalf("optimized cost %d became %d after round trip", costBefore, got)
	}
}

// GroupSet composes with OrderedIndex columns via Index().
func TestGroupSetWithOrderedColumns(t *testing.T) {
	a := []int{1, 2, 3, 1}
	b := []int{10, 10, 20, 20}
	aIx, err := BuildOrdered(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bIx, err := BuildOrdered(b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroupSet(aIx.Index(), bIx.Index())
	if err != nil {
		t.Fatal(err)
	}
	all, _ := aIx.Index().Existing()
	counts := g.GroupCounts(all)
	if len(counts) != 4 {
		t.Fatalf("groups = %d, want 4", len(counts))
	}
}

// A custom mapping wider than necessary must survive Build and queries.
func TestCustomWideMapping(t *testing.T) {
	m := encoding.NewMapping[string](6)
	m.MustAdd("x", 33)
	m.MustAdd("y", 7)
	ix, err := Build([]string{"x", "y", "x"}, nil, &Options[string]{Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 6 {
		t.Fatalf("K = %d", ix.K())
	}
	rows, st := ix.Eq("x")
	if rows.String() != "101" {
		t.Fatalf("Eq = %s", rows.String())
	}
	if st.VectorsRead > 6 {
		t.Fatal("cost exceeded k")
	}
	// Plenty of free codes: don't-cares may cut the cost below k.
	if ix.ExprFor([]string{"x", "y"}).AccessCost() >= 6 {
		t.Log("note: dc reduction did not trigger; acceptable but unusual")
	}
}

// A repeated selection, reduced once through the code-set cache, selects
// the same rows after the index is re-encoded.
func TestPreparedSurvivesReencode(t *testing.T) {
	col := []int{0, 1, 2, 3, 0, 1}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel := []int{0, 1}
	before, _ := ix.In(sel)
	nm := encoding.NewMapping[int](3)
	nm.MustAdd(0, 6)
	nm.MustAdd(1, 3)
	nm.MustAdd(2, 5)
	nm.MustAdd(3, 1)
	if err := ix.Reencode(nm); err != nil {
		t.Fatal(err)
	}
	after, _ := ix.In(sel)
	if !before.Equal(after) {
		t.Fatal("repeated In result changed across re-encode")
	}
}
