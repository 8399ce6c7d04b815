package core

import (
	"testing"

	"repro/internal/encoding"
)

// FuzzSwapCatchUp drives random interleavings of appends against the
// three fixed points of a live re-encoding (shadow built, after a
// catch-up round, before the flip lock) via the Reencode test hook, and
// checks convergence: the post-flip index must be bit-for-bit equal — in
// selected rows AND in iostat.Stats — to an index built from scratch over
// the same logical column under the same final mapping. Stats parity is
// the strong claim: catch-up replay must not leave behind a different
// NULL code, don't-care set, or vector shape than a cold build would
// produce.
func FuzzSwapCatchUp(f *testing.F) {
	f.Add([]byte{3, 10, 0, 1, 2, 0xff, 1, 0, 2, 1, 0, 1, 2, 2, 3, 4, 0xff, 1, 5, 2, 0xff, 6})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 63, 5, 8, 0xff, 0xff, 9, 1, 2, 3, 4, 5, 6, 7, 8, 0, 8, 1, 2, 0xff, 3})
	f.Add([]byte{2, 4, 1, 0, 1, 0, 3, 0xff, 0xff, 0xff, 3, 9, 9, 9, 3, 0, 0xff, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		card := 2 + int(next())%7 // 2..8 distinct base values
		n0 := 1 + int(next())%64  // 1..64 initial rows

		column := make([]int64, n0)
		isNull := make([]bool, n0)
		for i := range column {
			b := next()
			if b == 0xff && i > 0 { // row 0 stays a value so the domain is non-empty
				isNull[i] = true
				continue
			}
			column[i] = int64(int(b) % card)
		}

		// Per-stage append scripts: 0xff appends NULL, anything else a
		// value drawn from a domain slightly wider than the base so
		// catch-up replay also exercises shadow widening on novel values.
		var scripts [3][]byte
		for st := range scripts {
			n := int(next()) % 9
			scripts[st] = make([]byte, n)
			for i := range scripts[st] {
				scripts[st][i] = next()
			}
		}
		rot := int(next())

		s, err := BuildSynced(column, isNull, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.foldThreshold = 4 // force folds to interleave with the rebuild

		var done [3]bool
		s.testHook = func(stage int) {
			if done[stage] {
				return // hook 1 fires once per catch-up round; run the script once
			}
			done[stage] = true
			for _, b := range scripts[stage] {
				if b == 0xff {
					if err := s.AppendNull(); err != nil {
						t.Fatalf("stage %d AppendNull: %v", stage, err)
					}
				} else if err := s.Append(int64(int(b) % (card + 4))); err != nil {
					t.Fatalf("stage %d Append: %v", stage, err)
				}
			}
		}

		// Target mapping: the current value set with codes rotated, the
		// same k. Code 0 stays free (the builder never assigns it), so
		// this is always a valid Theorem 2.1 encoding.
		m := s.Mapping()
		values := m.Values()
		codes := make([]uint32, len(values))
		for i, v := range values {
			c, ok := m.CodeOf(v)
			if !ok {
				t.Fatalf("mapping lost %v", v)
			}
			codes[i] = c
		}
		nm := encoding.NewMapping[int64](m.K())
		for i, v := range values {
			nm.MustAdd(v, codes[(i+rot)%len(codes)])
		}

		if err := s.Reencode(nm); err != nil {
			t.Fatalf("Reencode: %v", err)
		}
		if got, want := s.Epoch(), uint64(2); got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}

		// Decode the live contents and rebuild from scratch under the
		// final mapping (catch-up may have widened it past nm).
		var (
			col2  []int64
			null2 []bool
		)
		if err := s.WithReadLock(func(ix *Index[int64]) error {
			if err := ix.CheckInvariants(); err != nil {
				return err
			}
			for row := 0; row < ix.Len(); row++ {
				v, rowNull, ok := ix.DecodeRow(row)
				if !ok && !rowNull {
					t.Fatalf("row %d decoded as void; nothing was deleted", row)
				}
				col2 = append(col2, v)
				null2 = append(null2, rowNull)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(col2, null2, &Options[int64]{Mapping: s.Mapping()})
		if err != nil {
			t.Fatal(err)
		}

		// Convergence: every probe must agree bit-for-bit in rows and
		// exactly in access stats.
		for _, v := range s.Values() {
			gotRows, gotSt := s.Eq(v)
			wantRows, wantSt := fresh.Eq(v)
			if !gotRows.Equal(wantRows) {
				t.Fatalf("Eq(%d): live %d rows, from-scratch %d", v, gotRows.Count(), wantRows.Count())
			}
			if gotSt != wantSt {
				t.Fatalf("Eq(%d) stats: live %+v, from-scratch %+v", v, gotSt, wantSt)
			}
		}
		vals := s.Values()
		for _, group := range [][]int64{vals, vals[:(len(vals)+1)/2], {vals[0], vals[len(vals)-1]}} {
			gotRows, gotSt := s.In(group)
			wantRows, wantSt := fresh.In(group)
			if !gotRows.Equal(wantRows) {
				t.Fatalf("In(%v): live %d rows, from-scratch %d", group, gotRows.Count(), wantRows.Count())
			}
			if gotSt != wantSt {
				t.Fatalf("In(%v) stats: live %+v, from-scratch %+v", group, gotSt, wantSt)
			}
		}
		gotNull, gotSt := s.IsNull()
		wantNull, wantSt := fresh.IsNull()
		if !gotNull.Equal(wantNull) {
			t.Fatalf("IsNull: live %d rows, from-scratch %d", gotNull.Count(), wantNull.Count())
		}
		if gotSt != wantSt {
			t.Fatalf("IsNull stats: live %+v, from-scratch %+v", gotSt, wantSt)
		}
		gotEx, gotSt := s.Existing()
		wantEx, wantSt := fresh.Existing()
		if !gotEx.Equal(wantEx) {
			t.Fatalf("Existing: live %d rows, from-scratch %d", gotEx.Count(), wantEx.Count())
		}
		if gotSt != wantSt {
			t.Fatalf("Existing stats: live %+v, from-scratch %+v", gotSt, wantSt)
		}
	})
}
