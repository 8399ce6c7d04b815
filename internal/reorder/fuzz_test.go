package reorder

import (
	"bytes"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/table"
)

// rowsFrom draws a row set over len(data) rows from the fuzz bytes: row i
// is set when data[i]'s top bit is, and each 64-row word whose first
// byte has bit 6 set is set whole, so all-ones words occur beside sparse
// ones, and the last word is partial unless len(data) is a multiple of 64.
func rowsFrom(data []byte) *bitvec.Vector {
	rows := bitvec.New(len(data))
	for i, by := range data {
		if by&0x80 != 0 || data[i&^63]&0x40 != 0 {
			rows.Set(i)
		}
	}
	return rows
}

// FuzzReorderPermutation drives the planner with arbitrary two-column
// data (values and NULL flags decoded from the fuzz input) under every
// heuristic and asserts the contractual properties: the permutation is a
// bijection, its inverse really inverts it, applying perm then inverse
// round-trips every row, and MapToOriginal maps a row set bit for bit as
// a per-bit reference does and back again through the inverse — so a
// reordered build can always map results back to original row ids.
func FuzzReorderPermutation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x7f, 0x80, 0x01, 0xfe, 0x10})
	f.Add(bytes.Repeat([]byte{0x41, 0x93, 0x0c, 0xf7, 0x28}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		tab := table.MustNew("fz",
			table.NewColumn("a", table.Int64),
			table.NewColumn("b", table.Int64),
		)
		for _, by := range data {
			a := table.IntCell(int64(by & 0x0f))
			b := table.IntCell(int64(by >> 4))
			if by&0x0f == 0x0f {
				a = table.NullCell()
			}
			if by>>4 == 0x0f {
				b = table.NullCell()
			}
			if err := tab.AppendRow(a, b); err != nil {
				t.Fatal(err)
			}
		}

		for _, spec := range []Spec{
			LexAsc, GrayAsc, GrayHist,
			{Order: Lex, Columns: Declared},
			{Order: Gray, Columns: Declared},
		} {
			p, err := PlanTable(tab, spec)
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			if err := CheckPermutation(p.Perm, tab.Len()); err != nil {
				t.Fatalf("%v: not a bijection: %v", spec, err)
			}
			inv := Inverse(p.Perm)
			for i, pi := range p.Perm {
				if inv[pi] != i {
					t.Fatalf("%v: inverse broken at %d", spec, i)
				}
			}
			rows := rowsFrom(data)
			want := bitvec.New(tab.Len())
			rows.ForEach(func(i int) bool {
				want.Set(p.Perm[i])
				return true
			})
			mapped := MapToOriginal(rows, p.Perm)
			if !mapped.Equal(want) {
				t.Fatalf("%v: MapToOriginal maps %d rows, per-bit reference %d", spec, mapped.Count(), want.Count())
			}
			if back := MapToOriginal(mapped, inv); !back.Equal(rows) {
				t.Fatalf("%v: mapping back through the inverse does not return the rows", spec)
			}
			// Note: RunsAfter <= RunsBefore is NOT asserted — on adversarial
			// data a sorted leading column can break runs in a trailing one
			// (the benches measure the aggregate effect instead).
			sorted, err := ApplyTable(tab, p.Perm)
			if err != nil {
				t.Fatalf("%v: apply: %v", spec, err)
			}
			back, err := ApplyTable(sorted, inv)
			if err != nil {
				t.Fatalf("%v: apply inverse: %v", spec, err)
			}
			for _, c := range tab.Columns() {
				bc := back.Column(c.Name)
				for row := 0; row < tab.Len(); row++ {
					if c.IsNull(row) != bc.IsNull(row) || (!c.IsNull(row) && c.Int(row) != bc.Int(row)) {
						t.Fatalf("%v: column %s row %d does not round-trip", spec, c.Name, row)
					}
				}
			}
		}
	})
}
