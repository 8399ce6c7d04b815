package reorder

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/table"
)

// randomTable builds a mixed int/string table with NULLs sprinkled in.
func randomTable(r *rand.Rand, n int) *table.Table {
	tab := table.MustNew("rt",
		table.NewColumn("cat", table.Int64),
		table.NewColumn("tag", table.String),
		table.NewColumn("qty", table.Int64),
	)
	tags := []string{"red", "green", "blue", "cyan"}
	for i := 0; i < n; i++ {
		cells := []table.Cell{
			table.IntCell(int64(r.Intn(5))),
			table.StrCell(tags[r.Intn(len(tags))]),
			table.IntCell(int64(r.Intn(20))),
		}
		for ci := range cells {
			if r.Intn(10) == 0 {
				cells[ci] = table.NullCell()
			}
		}
		if err := tab.AppendRow(cells...); err != nil {
			panic(err)
		}
	}
	return tab
}

// cellKey renders one cell as a comparable multiset key.
func cellKey(c *table.Column, row int) string {
	if c.IsNull(row) {
		return "NULL"
	}
	if c.Kind == table.Int64 {
		return fmt.Sprintf("i%d", c.Int(row))
	}
	return "s" + c.Str(row)
}

// multiset returns value -> count for a column, NULLs included.
func multiset(c *table.Column) map[string]int {
	out := make(map[string]int)
	for row := 0; row < c.Len(); row++ {
		out[cellKey(c, row)]++
	}
	return out
}

// TestApplyPreservesMultisetsAndNulls is the table-level property test:
// for every heuristic, the reordered table holds exactly the same value
// multiset per column, and every NULL lands where the permutation says
// its row went.
func TestApplyPreservesMultisetsAndNulls(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tab := randomTable(r, 700)
	for _, spec := range []Spec{LexAsc, GrayAsc, GrayHist, {Order: Lex, Columns: Declared}} {
		p, err := PlanTable(tab, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyTable(tab, p.Perm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tab.Len() {
			t.Fatalf("%v: %d rows, want %d", spec, got.Len(), tab.Len())
		}
		for _, c := range tab.Columns() {
			gc := got.Column(c.Name)
			wantMS, gotMS := multiset(c), multiset(gc)
			for k, v := range wantMS {
				if gotMS[k] != v {
					t.Fatalf("%v: column %s multiset changed: %q %d -> %d", spec, c.Name, k, v, gotMS[k])
				}
			}
			if len(gotMS) != len(wantMS) {
				t.Fatalf("%v: column %s gained values", spec, c.Name)
			}
			for row := 0; row < got.Len(); row++ {
				if gc.IsNull(row) != c.IsNull(p.Perm[row]) {
					t.Fatalf("%v: column %s NULL mismatch at reordered row %d (orig %d)", spec, c.Name, row, p.Perm[row])
				}
				if cellKey(gc, row) != cellKey(c, p.Perm[row]) {
					t.Fatalf("%v: column %s value mismatch at reordered row %d", spec, c.Name, row)
				}
			}
		}
	}
}

// TestInverseRoundTrip: applying the inverse permutation to the
// reordered table reproduces the original cell for cell.
func TestInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	tab := randomTable(r, 300)
	p, err := PlanTable(tab, GrayHist)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := ApplyTable(tab, p.Perm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ApplyTable(sorted, Inverse(p.Perm))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tab.Columns() {
		bc := back.Column(c.Name)
		for row := 0; row < tab.Len(); row++ {
			if cellKey(c, row) != cellKey(bc, row) {
				t.Fatalf("column %s row %d does not round-trip", c.Name, row)
			}
		}
	}
}

func TestMapToOriginal(t *testing.T) {
	perm := []int{3, 1, 4, 0, 2}
	rows := bitvec.New(5)
	rows.Set(0) // reordered row 0 = original row 3
	rows.Set(2) // reordered row 2 = original row 4
	got := MapToOriginal(rows, perm)
	want := bitvec.FromIndices(5, []int{3, 4})
	if !got.Equal(want) {
		t.Fatalf("mapped rows %v, want %v", got.Indices(), want.Indices())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a row set shorter than the permutation was mapped")
		}
	}()
	MapToOriginal(bitvec.New(4), perm)
}

func TestPermuteHelpers(t *testing.T) {
	perm := []int{2, 0, 1}
	if got := Permute([]int64{10, 20, 30}, perm); got[0] != 30 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("Permute = %v", got)
	}
	if got := PermuteBools(nil, perm); got != nil {
		t.Fatal("PermuteBools(nil) should stay nil")
	}
	if got := PermuteBools([]bool{true, false, false}, perm); !got[1] || got[0] || got[2] {
		t.Fatalf("PermuteBools = %v", got)
	}
	inv := Inverse(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("Inverse broken at %d", i)
		}
	}
}

func TestApplyStarKeepsDimensionBindings(t *testing.T) {
	dim := table.MustNew("D", table.NewColumn("name", table.String))
	for _, n := range []string{"x", "y", "z"} {
		if err := dim.AppendRow(table.StrCell(n)); err != nil {
			t.Fatal(err)
		}
	}
	fact := table.MustNew("F",
		table.NewColumn("fk", table.Int64),
		table.NewColumn("v", table.Int64),
	)
	fks := []int64{2, 0, 1, 2, 0}
	for i, fk := range fks {
		if err := fact.AppendRow(table.IntCell(fk), table.IntCell(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	star := table.NewStar(fact)
	if err := star.AddDimension("fk", dim); err != nil {
		t.Fatal(err)
	}
	p, err := PlanTable(fact, LexAsc)
	if err != nil {
		t.Fatal(err)
	}
	sortedStar, err := ApplyStar(star, p.Perm)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedStar.DimColumns(); len(got) != 1 || got[0] != "fk" {
		t.Fatalf("DimColumns = %v", got)
	}
	orig, err := star.DimAttr("fk", "name")
	if err != nil {
		t.Fatal(err)
	}
	moved, err := sortedStar.DimAttr("fk", "name")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fact.Len(); i++ {
		if moved.Str(i) != orig.Str(p.Perm[i]) {
			t.Fatalf("dim attr did not move with its fact row at %d", i)
		}
	}
}

func TestApplyTableRejectsBadPerm(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(13)), 10)
	if _, err := ApplyTable(tab, []int{0, 1}); err == nil {
		t.Fatal("short perm accepted")
	}
	if _, err := ApplyTable(tab, []int{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("duplicate perm accepted")
	}
}
