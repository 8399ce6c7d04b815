package core

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

func fusedIndexFixture(t testing.TB) (*Index[int64], []int64) {
	t.Helper()
	col := make([]int64, 5000)
	for i := range col {
		col[i] = int64(i % 16)
	}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, col
}

func TestEqIntoMatchesEq(t *testing.T) {
	ix, _ := fusedIndexFixture(t)
	dst := bitvec.New(ix.Len())
	for v := int64(0); v < 16; v++ {
		want, wantSt := ix.Eq(v)
		gotSt := ix.EqInto(v, dst)
		if !dst.Equal(want) {
			t.Fatalf("EqInto(%d) rows diverge from Eq", v)
		}
		if gotSt != wantSt {
			t.Fatalf("EqInto(%d) stats = %+v, want %+v", v, gotSt, wantSt)
		}
	}
	// Unknown value: destination fully cleared, zero stats.
	dst.Fill()
	if st := ix.EqInto(99, dst); st != (iostat.Stats{}) {
		t.Fatalf("EqInto(unknown) stats = %+v, want zero", st)
	}
	if dst.Any() {
		t.Fatal("EqInto(unknown) left stale bits in the destination")
	}
}

func TestEqIntoPanicsOnLengthMismatch(t *testing.T) {
	ix, _ := fusedIndexFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.EqInto(1, bitvec.New(ix.Len()-1))
}

// TestEqIntoZeroAllocWarmed is the point-query allocation gate: once the
// value's program is memoized, EqInto into a reused destination must not
// allocate.
func TestEqIntoZeroAllocWarmed(t *testing.T) {
	ix, _ := fusedIndexFixture(t)
	dst := bitvec.New(ix.Len())
	ix.EqInto(5, dst) // warm the program cache
	if allocs := testing.AllocsPerRun(100, func() { ix.EqInto(5, dst) }); allocs != 0 {
		t.Fatalf("warmed EqInto allocates %.0f objects per run, want 0", allocs)
	}
}

// TestCachedProgramSurvivesMutation checks that the program cache
// invalidates correctly: after appends (including a widening append that
// grows k and rebuilds the source slice), Eq and EqInto still agree with a
// fresh evaluation.
func TestCachedProgramSurvivesMutation(t *testing.T) {
	col := []int64{0, 1, 2, 3}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix.Eq(2) // warm
	for v := int64(4); v < 40; v++ {
		if err := ix.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	dst := bitvec.New(ix.Len())
	for _, v := range []int64{0, 2, 17, 39} {
		want, wantSt := ix.Eq(v)
		if gotSt := ix.EqInto(v, dst); !dst.Equal(want) || gotSt != wantSt {
			t.Fatalf("post-mutation EqInto(%d) diverges from Eq", v)
		}
		for row := 0; row < ix.Len(); row++ {
			wantBit := (row < 4 && int64(row) == v) || (row >= 4 && int64(row) == v)
			if want.Get(row) != wantBit {
				t.Fatalf("Eq(%d) wrong at row %d after widening", v, row)
			}
		}
	}
}
