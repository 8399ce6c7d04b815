package core

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// TestSyncedTailParity checks every read of a Synced index whose rows
// partly sit in the append tail against a plain Index driven through the
// same Build, Delete, Append and AppendNull sequence: rows must be equal
// bit for bit and Stats exactly. The tail holds known values, a value that
// takes a free code, values that widen k, and the first NULL, and the
// base-plus-tail length crosses a word boundary so the tail's words show
// in the accounting.
func TestSyncedTailParity(t *testing.T) {
	shapes := []struct {
		name    string
		opt     Options[int]
		deletes []int
	}{
		{"void reserve", Options[int]{}, nil},
		{"deleted base rows", Options[int]{}, []int{0, 7, 33, 59}},
		{"no void reserve", Options[int]{DisableVoidReserve: true}, nil},
		{"no don't-cares", Options[int]{DisableDontCares: true}, []int{5}},
	}
	// Tail script: known values, then novel values interleaved with the
	// first NULL. The base holds five values, so the first novel value
	// takes a free code and later ones exhaust the code space and widen.
	type step struct {
		v    int
		null bool
	}
	tail := []step{{v: 2}, {v: 4}, {v: 10}, {null: true}, {v: 11}, {v: 12}, {v: 2}, {v: 13}, {null: true}, {v: 10}}

	col := make([]int, 60)
	for i := range col {
		col[i] = i % 5
	}
	probes := [][]int{{}, {2}, {10}, {99}, {0, 4}, {2, 10, 13}, {1, 99, 12}, {0, 1, 2, 3, 4, 10, 11, 12, 13}}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			opt := sh.opt
			s, err := BuildSynced(col, nil, &opt)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(col, nil, &opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range sh.deletes {
				if err := s.Delete(row); err != nil {
					t.Fatal(err)
				}
				if err := ix.Delete(row); err != nil {
					t.Fatal(err)
				}
			}
			k0 := ix.K()
			for _, st := range tail {
				if st.null {
					mustNoErr(t, s.AppendNull(), ix.AppendNull())
				} else {
					mustNoErr(t, s.Append(st.v), ix.Append(st.v))
				}
			}
			if ix.K() <= k0 {
				t.Fatalf("tail did not widen k (%d)", k0)
			}
			if s.Len() != ix.Len() || s.K() != ix.K() {
				t.Fatalf("synced len=%d k=%d, plain len=%d k=%d", s.Len(), s.K(), ix.Len(), ix.K())
			}
			if s.Len() == s.state.Load().ix.Len() {
				t.Fatal("appends folded; the tail must stay open")
			}

			check := func(name string, gotRows *bitvec.Vector, gotSt iostat.Stats, wantRows *bitvec.Vector, wantSt iostat.Stats) {
				t.Helper()
				if !gotRows.Equal(wantRows) {
					t.Errorf("%s: synced rows %v, plain %v", name, gotRows.Indices(), wantRows.Indices())
				}
				if gotSt != wantSt {
					t.Errorf("%s: synced stats %+v, plain %+v", name, gotSt, wantSt)
				}
			}
			for _, p := range probes {
				if len(p) == 1 {
					gotRows, gotSt := s.Eq(p[0])
					wantRows, wantSt := ix.Eq(p[0])
					check(fmt.Sprintf("Eq(%d)", p[0]), gotRows, gotSt, wantRows, wantSt)

					gotDst, wantDst := bitvec.New(s.Len()), bitvec.New(ix.Len())
					gotDst.Fill()
					wantDst.Fill()
					gotSt, wantSt = s.EqInto(p[0], gotDst), ix.EqInto(p[0], wantDst)
					check(fmt.Sprintf("EqInto(%d)", p[0]), gotDst, gotSt, wantDst, wantSt)
				}
				gotRows, gotSt := s.In(p)
				wantRows, wantSt := ix.In(p)
				check(fmt.Sprintf("In(%v)", p), gotRows, gotSt, wantRows, wantSt)

				gotRows, gotSt = s.InParallel(p, 2, nil)
				wantRows, wantSt = ix.InParallel(p, 2, nil)
				check(fmt.Sprintf("InParallel(%v)", p), gotRows, gotSt, wantRows, wantSt)

				gotRows, gotSt = s.NotIn(p)
				wantRows, wantSt = ix.NotIn(p)
				check(fmt.Sprintf("NotIn(%v)", p), gotRows, gotSt, wantRows, wantSt)

				gotRows, gotSt = s.Prepare(p).Eval()
				wantRows, wantSt = ix.Prepare(p).Eval()
				check(fmt.Sprintf("Prepare(%v).Eval", p), gotRows, gotSt, wantRows, wantSt)
			}
			gotRows, gotSt := s.IsNull()
			wantRows, wantSt := ix.IsNull()
			check("IsNull", gotRows, gotSt, wantRows, wantSt)

			gotRows, gotSt = s.Existing()
			wantRows, wantSt = ix.Existing()
			check("Existing", gotRows, gotSt, wantRows, wantSt)
		})
	}
}

func mustNoErr(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
