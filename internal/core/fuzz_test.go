package core

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the index loader: it must reject or
// accept them without panicking, and anything it accepts must pass the
// index invariants (Load already enforces that; the fuzz target guards
// the property).
func FuzzLoad(f *testing.F) {
	// Seed with a valid file and a few mutations.
	ix, err := Build([]string{"a", "b", "c", "a"}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix, StringCodec{}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("EBIX"))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 20 {
		mutated[20] ^= 0xFF
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load[string](bytes.NewReader(data), StringCodec{})
		if err != nil {
			return
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("Load accepted an inconsistent index: %v", err)
		}
		// An accepted index must round-trip.
		var out bytes.Buffer
		if err := Save(&out, loaded, StringCodec{}); err != nil {
			t.Fatalf("re-saving a loaded index failed: %v", err)
		}
	})
}

// FuzzBuildQueryDelete drives the index through arbitrary operation
// sequences derived from fuzz bytes and checks invariants throughout. The
// first byte sizes a prefix of the rest that Build codes (in value order,
// a word at a time, NULLs included); the remaining bytes are the
// operations. After the build and after every operation it re-evaluates
// one fixed IN list, whose reduction the code-set cache serves on every
// repeat, and one fixed range through Range: domain expansion, widening,
// NULL-code allocation and deletes must never leave either stale. The
// build's code space is ordered, so its ranges take the interval cover
// (widened across free and void codes, split around the NULL code); a new
// value above every other keeps the order and any other new value switches
// them to the IN list.
func FuzzBuildQueryDelete(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 4, 5})
	f.Add([]byte{2, 0, 0, 0, 0})
	f.Add([]byte{0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	prefix := []byte{70}
	for i := 0; i < 70; i++ {
		prefix = append(prefix, byte(i*37%256))
	}
	f.Add(append(prefix, 31, 250, 7, 241, 40, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var col []int
		var isNull []bool
		mirror := make([]int, 0, len(data)) // -1 = void, -2 = null
		if len(data) > 0 {
			p := min(int(data[0]), len(data)-1)
			for _, b := range data[1 : 1+p] {
				v := int(b) % 32
				col, isNull = append(col, v), append(isNull, b >= 240)
				if b >= 240 {
					v = -2
				}
				mirror = append(mirror, v)
			}
			data = data[1+p:]
		}
		ix, err := Build(col, isNull, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ordered := orderedDomain(ix); !ordered {
			t.Fatalf("Build coded %v out of value order", ix.Values())
		}
		sel := []int{0, 2, 5}
		const lo, hi = 3, 20
		check := func(op int) {
			rows, st := ix.In(sel)
			if rows.Len() != len(mirror) || st.VectorsRead > ix.K() {
				t.Fatalf("op %d: In(%v) has %d rows (want %d), read %d vectors, k=%d",
					op, sel, rows.Len(), len(mirror), st.VectorsRead, ix.K())
			}
			for i, mv := range mirror {
				if rows.Get(i) != slices.Contains(sel, mv) {
					t.Fatalf("op %d: In(%v) wrong at row %d (mirror %d)", op, sel, i, mv)
				}
			}
			rows, st = Range(ix.View(), lo, hi, 1, nil)
			if p := PredictRange(ix.View(), lo, hi); rows.Len() != len(mirror) || st != p {
				t.Fatalf("op %d: Range(%d, %d) has %d rows (want %d), stats %+v, predicted %+v",
					op, lo, hi, rows.Len(), len(mirror), st, p)
			}
			for i, mv := range mirror {
				if rows.Get(i) != (mv >= lo && mv <= hi) {
					t.Fatalf("op %d: Range(%d, %d) wrong at row %d (mirror %d)", op, lo, hi, i, mv)
				}
			}
		}
		check(-1)
		for op, b := range data {
			switch {
			case b >= 250: // delete a row
				if ix.Len() > 0 {
					row := int(b) % ix.Len()
					if err := ix.Delete(row); err != nil {
						t.Fatal(err)
					}
					mirror[row] = -1
				}
			case b >= 240: // append NULL
				if err := ix.AppendNull(); err != nil {
					t.Fatal(err)
				}
				mirror = append(mirror, -2)
			default: // append value b%32
				v := int(b) % 32
				if err := ix.Append(v); err != nil {
					t.Fatal(err)
				}
				mirror = append(mirror, v)
			}
			check(op)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// One full query sweep against the mirror.
		for v := 0; v < 32; v++ {
			rows, st := ix.Eq(v)
			if st.VectorsRead > ix.K() {
				t.Fatalf("Eq(%d) read %d vectors, k=%d", v, st.VectorsRead, ix.K())
			}
			for i, mv := range mirror {
				if rows.Get(i) != (mv == v) {
					t.Fatalf("Eq(%d) wrong at row %d (mirror %d)", v, i, mv)
				}
			}
		}
	})
}
