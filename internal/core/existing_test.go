package core

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// TestExistingRowsAndStats pins Existing's rows and Stats across the
// shapes that change its answer: NULL codes, voided rows, no void
// reservation, and a Synced index with an outstanding append tail
// (before and after the tail folds). The base OR reads every vector once;
// the NULL mask charges IsNull's cached program's operations plus the
// AND-NOT, and its vectors only where no OR pass read them.
func TestExistingRowsAndStats(t *testing.T) {
	type result struct {
		rows string
		st   iostat.Stats
	}
	// Synced fixture: 63 base rows (one word), then a three-row tail that
	// crosses into a second word.
	col := make([]int, 63)
	nulls := make([]bool, 63)
	var want []bool
	for i := range col {
		col[i] = i % 5
		nulls[i] = i%7 == 3
		want = append(want, i != 0 && !nulls[i]) // row 0 is deleted below
	}
	want = append(want, true, false, true) // tail: 2, NULL, 9 (a new value)
	wantRows := bitvec.New(len(want))
	for i, ok := range want {
		if ok {
			wantRows.Set(i)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T) result
		want result
	}{
		{"nulls+deleted", func(t *testing.T) result {
			ix := mustBuild(t, []int{1, 2, 3, 0, 2, 0, 1}, []bool{false, false, false, true, false, true, false}, nil)
			if err := ix.Delete(4); err != nil {
				t.Fatal(err)
			}
			rows, st := ix.Existing()
			return result{rows.String(), st}
		}, result{"1110001", iostat.Stats{VectorsRead: 3, WordsRead: 3, BoolOps: 5}}},
		{"nulls, no void reserve", func(t *testing.T) result {
			ix := mustBuild(t, []int{5, 0, 6}, []bool{false, true, false}, &Options[int]{DisableVoidReserve: true})
			rows, st := ix.Existing()
			return result{rows.String(), st}
		}, result{"101", iostat.Stats{VectorsRead: 1, WordsRead: 1, BoolOps: 2}}},
		{"deleted, no nulls", func(t *testing.T) result {
			ix := mustBuild(t, []int{7, 8, 7}, nil, nil)
			if err := ix.Delete(1); err != nil {
				t.Fatal(err)
			}
			rows, st := ix.Existing()
			return result{rows.String(), st}
		}, result{"101", iostat.Stats{VectorsRead: 2, WordsRead: 2, BoolOps: 2}}},
		{"synced tail", func(t *testing.T) result {
			s := syncedExistingFixture(t, col, nulls)
			rows, st := s.View().Existing()
			return result{rows.String(), st}
		}, result{wantRows.String(), iostat.Stats{VectorsRead: 3, WordsRead: 6, BoolOps: 8}}},
		{"synced tail folded", func(t *testing.T) result {
			s := syncedExistingFixture(t, col, nulls)
			s.Flush()
			rows, st := s.View().Existing()
			return result{rows.String(), st}
		}, result{wantRows.String(), iostat.Stats{VectorsRead: 3, WordsRead: 6, BoolOps: 8}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Fatalf("Existing = %+v, want %+v", got, c.want)
			}
		})
	}
}

func mustBuild(t *testing.T, column []int, isNull []bool, opt *Options[int]) *Index[int] {
	t.Helper()
	ix, err := Build(column, isNull, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// syncedExistingFixture builds a Synced index over col, deletes row 0, and
// leaves a tail of a known value, a NULL, and a new value.
func syncedExistingFixture(t *testing.T, col []int, nulls []bool) *Synced[int] {
	t.Helper()
	s, err := BuildSynced(col, nulls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{s.Append(2), s.AppendNull(), s.Append(9)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestExistingAllNullNoVectors pins the k=0 corner: an index without the
// void reservation whose only code is the NULL code has no vectors, every
// row is NULL, and so no row exists.
func TestExistingAllNullNoVectors(t *testing.T) {
	ix := mustBuild(t, []int{0, 0}, []bool{true, true}, &Options[int]{DisableVoidReserve: true})
	if ix.K() != 0 {
		t.Fatalf("K = %d, want 0", ix.K())
	}
	rows, st := ix.Existing()
	if rows.Any() || st != (iostat.Stats{BoolOps: 1}) {
		t.Fatalf("Existing = (%s, %+v), want no rows and one BoolOp", rows, st)
	}
}

// TestExistingChargesNullProgram checks Existing's NULL mask against
// IsNull, which evaluates the same cached program: without the void
// reservation no OR pass runs, so Existing reads exactly IsNull's vectors
// and words; with it, the OR pass has read all k already. Either way it
// adds IsNull's operations plus the AND-NOT.
func TestExistingChargesNullProgram(t *testing.T) {
	cases := []struct {
		name   string
		column []int
		isNull []bool
		opt    *Options[int]
	}{
		{"k=2, no void reserve", []int{5, 0, 6}, []bool{false, true, false}, &Options[int]{DisableVoidReserve: true}},
		{"k=3, no void reserve", []int{1, 2, 3, 4, 0, 5}, []bool{false, false, false, false, true, false}, &Options[int]{DisableVoidReserve: true}},
		{"no don't-cares", []int{1, 2, 0, 3}, []bool{false, false, true, false}, &Options[int]{DisableVoidReserve: true, DisableDontCares: true}},
		{"void reserve", []int{1, 2, 3, 0, 2, 0, 1}, []bool{false, false, false, true, false, true, false}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix := mustBuild(t, c.column, c.isNull, c.opt)
			_, nullSt := ix.IsNull()
			_, st := ix.Existing()
			want := iostat.Stats{VectorsRead: nullSt.VectorsRead, WordsRead: nullSt.WordsRead, BoolOps: nullSt.BoolOps + 1}
			if ix.reserveVoid {
				want = iostat.Stats{VectorsRead: ix.K(), WordsRead: ix.K(), BoolOps: ix.K() + nullSt.BoolOps + 1}
			}
			if nullSt.VectorsRead == 0 || st != want {
				t.Fatalf("Existing stats %+v, want %+v (IsNull %+v)", st, want, nullSt)
			}
		})
	}
}
