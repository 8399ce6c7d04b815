package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/iostat"
)

func TestBuildOrderedBasics(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oi.Index().Len() != len(col) {
		t.Fatalf("Len = %d", oi.Index().Len())
	}
	// Order preserving: codes ascend with values.
	m := oi.Index().Mapping()
	sorted := []int{101, 102, 103, 104, 105, 106}
	ok, err := encoding.IsOrderPreserving(m, sorted)
	if err != nil || !ok {
		t.Fatalf("mapping not order preserving: %v %v\n%s", ok, err, m)
	}
	// Code 0 reserved for void.
	if _, taken := m.ValueOf(0); taken {
		t.Fatal("code 0 should be free for void tuples")
	}
	if _, err := BuildOrdered([]int{}, nil, nil); err == nil {
		t.Fatal("empty column should error")
	}
}

func TestOrderedRange(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, st := oi.Range(102, 104)
	if rows.String() != "0010011" {
		t.Fatalf("Range(102,104) = %s", rows.String())
	}
	if st.VectorsRead > oi.K() {
		t.Fatalf("Range read %d vectors, want <= k = %d", st.VectorsRead, oi.K())
	}
	// Bounds between domain values.
	rows, _ = oi.Range(100, 101)
	if rows.String() != "0100000" {
		t.Fatalf("Range(100,101) = %s", rows.String())
	}
	rows, _ = oi.Range(200, 300)
	if rows.Any() {
		t.Fatal("out-of-domain range should be empty")
	}
	rows, _ = oi.Range(104, 102)
	if rows.Any() {
		t.Fatal("inverted range should be empty")
	}
}

func TestOrderedRangeSkipsVoidAndNull(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := oi.Index().Delete(1); err != nil { // void row holding 101
		t.Fatal(err)
	}
	if err := oi.Index().AppendNull(); err != nil {
		t.Fatal(err)
	}
	rows, _ := oi.Range(101, 106)
	if rows.Count() != 6 {
		t.Fatalf("Range over all = %d rows, want 6 (void+NULL excluded): %s", rows.Count(), rows.String())
	}
	if rows.Get(1) || rows.Get(7) {
		t.Fatal("void or NULL row selected by Range")
	}
}

// Figure 6: the favored subdomain {101,102,104,105} should reduce to a
// single vector under the optimized order-preserving encoding.
func TestOrderedFavoredSubdomain(t *testing.T) {
	col := []int{101, 102, 103, 104, 105, 106}
	fav := []int{101, 102, 104, 105}
	oi, err := BuildOrdered(col, [][]int{fav}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := oi.Index().ExprFor(fav)
	if e.AccessCost() != 1 {
		t.Fatalf("favored IN cost = %d (%s), want 1 as in Figure 6", e.AccessCost(), e)
	}
	// Order preservation must survive the optimization and the void shift.
	ok, err := encoding.IsOrderPreserving(oi.Index().Mapping(), col)
	if err != nil || !ok {
		t.Fatal("optimized mapping lost order preservation")
	}
}

// TestRangeUnorderedMappingTakesInList pins the route on a mapping whose
// codes do not ascend with its values: Range must select the values in
// range as an IN list (the interval between their codes would hold other
// values), with the IN list's rows and Stats.
func TestRangeUnorderedMappingTakesInList(t *testing.T) {
	m := encoding.NewMapping[int64](3)
	m.MustAdd(10, 5)
	m.MustAdd(20, 2) // larger value, smaller code
	m.MustAdd(30, 3)
	ix, err := Build([]int64{10, 20, 30, 20}, nil, &Options[int64]{Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, ordered := orderedDomain(ix); ordered {
		t.Fatal("non-order-preserving mapping taken as ordered")
	}
	rows, st := Range(ix.View(), 10, 20, 1, nil)
	in, inSt := ix.In([]int64{10, 20})
	if rows.String() != "1101" || !rows.Equal(in) || st != inSt {
		t.Fatalf("Range(10, 20) = %s %+v, IN list %s %+v", rows, st, in, inSt)
	}
}

// TestOrderedRangeAfterReencode re-encodes an ordered index's inner index
// in place. A mapping that reverses the code order leaves the build's
// interval cover selecting the wrong codes, so Range must fall back to the
// IN list; an order-preserving one must keep matching the scan too.
func TestOrderedRangeAfterReencode(t *testing.T) {
	col := []int{1, 2, 3, 4, 5, 6, 2, 3, 6, 1}
	for _, tc := range []struct {
		name string
		code func(v int) uint32
	}{
		{"reversed", func(v int) uint32 { return uint32(7 - v) }},
		{"order preserving", func(v int) uint32 { return uint32(v + 1) }},
	} {
		oi, err := BuildOrdered(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := encoding.NewMapping[int](oi.K())
		for v := 1; v <= 6; v++ {
			m.MustAdd(v, tc.code(v))
		}
		if err := oi.Index().Reencode(m); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, q := range [][2]int{{2, 3}, {1, 1}, {4, 6}, {0, 9}, {7, 9}} {
			lo, hi := q[0], q[1]
			rows, st := oi.Range(lo, hi)
			want := bitvec.New(len(col))
			for i, v := range col {
				if lo <= v && v <= hi {
					want.Set(i)
				}
			}
			if !rows.Equal(want) {
				t.Fatalf("%s: Range(%d, %d) = %d rows, scan %d", tc.name, lo, hi, rows.Count(), want.Count())
			}
			if p := PredictRange(oi.View(), lo, hi); st != p {
				t.Fatalf("%s: Range(%d, %d) stats %+v, predicted %+v", tc.name, lo, hi, st, p)
			}
			if in, _ := inListRange(oi.View(), lo, hi); !rows.Equal(in) {
				t.Fatalf("%s: Range(%d, %d) differs from the IN list", tc.name, lo, hi)
			}
		}
	}
}

// inListRange answers a range as the IN list of the view's mapped values
// in it: the route an unordered code space takes, and the reference the
// interval cover must agree with on rows.
func inListRange[V cmp.Ordered](v *View[V], lo, hi V) (*bitvec.Vector, iostat.Stats) {
	var in []V
	for _, x := range v.Values() {
		if lo <= x && x <= hi {
			in = append(in, x)
		}
	}
	return v.In(in)
}

// cmpCode is the O'Neil–Quass MSB-first comparison pass Range used before
// interval covers: the rows whose code is below c and those whose code
// equals c. It stays here as an oracle independent of boolmin.
func cmpCode[V comparable](ix *Index[V], c uint32) (lt, eq *bitvec.Vector) {
	eq = bitvec.New(ix.Len())
	eq.Fill()
	lt = bitvec.New(ix.Len())
	for i := ix.K() - 1; i >= 0; i-- {
		vec := ix.vectors[i]
		if c&(1<<uint(i)) != 0 {
			lt.Or(bitvec.AndNot(eq, vec))
			eq.And(vec)
		} else {
			eq.AndNot(vec)
		}
	}
	return lt, eq
}

// rangeByComparison answers Range(lo, hi) on an index whose mapping is
// order preserving with two comparison passes: the rows whose code lies
// between the codes of the first value >= lo and the last value <= hi,
// less the NULL rows.
func rangeByComparison[V cmp.Ordered](ix *Index[V], lo, hi V) *bitvec.Vector {
	sorted := ix.Values()
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	j := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
	if i >= j {
		return bitvec.New(ix.Len())
	}
	cl, _ := ix.mapping.CodeOf(sorted[i])
	ch, _ := ix.mapping.CodeOf(sorted[j-1])
	ltHi, eqHi := cmpCode(ix, ch)
	ltLo, _ := cmpCode(ix, cl)
	rows := ltHi.Or(eqHi).AndNot(ltLo)
	if ix.hasNullCode {
		_, nulls := cmpCode(ix, ix.nullCode)
		rows.AndNot(nulls)
	}
	return rows
}

// TestOrderedRangeNullCodeInside pins the split around the NULL code: on a
// mapping with code gaps, NULL takes the lowest free code, which lies
// between two value codes, and a range across it must leave NULL rows out.
func TestOrderedRangeNullCodeInside(t *testing.T) {
	m := encoding.NewMapping[int](4)
	for i, c := range []uint32{1, 3, 4, 9, 12} {
		m.MustAdd(10*(i+1), c)
	}
	col := []int{10, 20, 0, 30, 40, 0, 50, 20}
	null := []bool{false, false, true, false, false, true, false, false}
	ix, err := Build(col, null, &Options[int]{Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if ix.nullCode != 2 {
		t.Fatalf("NULL code = %d, want 2", ix.nullCode)
	}
	for _, r := range [][2]int{{10, 50}, {15, 35}, {20, 30}, {10, 20}, {30, 50}} {
		rows, st := Range(ix.View(), r[0], r[1], 1, nil)
		if want := rangeByComparison(ix, r[0], r[1]); !rows.Equal(want) {
			t.Fatalf("Range(%d, %d) = %s, want %s", r[0], r[1], rows, want)
		}
		if p := PredictRange(ix.View(), r[0], r[1]); st.VectorsRead > ix.K() || st != p {
			t.Fatalf("Range(%d, %d) stats %+v, predicted %+v (k=%d)", r[0], r[1], st, p, ix.K())
		}
	}
}

// rangeTarget is what the range property drives: a plain Index or a
// Synced one.
type rangeTarget interface {
	View() *View[int]
	Append(v int) error
	AppendNull() error
	Delete(row int) error
	Reencode(m *encoding.Mapping[int]) error
}

// firstAppearanceMapping codes a column's distinct values from code 1 in
// the order they first appear, leaving room for the void and NULL codes.
func firstAppearanceMapping(col []int) *encoding.Mapping[int] {
	var values []int
	for _, v := range col {
		if !slices.Contains(values, v) {
			values = append(values, v)
		}
	}
	m := encoding.NewMapping[int](encoding.BitsFor(len(values) + 2))
	for i, v := range values {
		m.MustAdd(v, uint32(i+1))
	}
	return m
}

// orderedMapping codes distinct values from code 1 in ascending value
// order, or in descending order when ascending is false, leaving room for
// the void and NULL codes.
func orderedMapping(values []int, ascending bool) *encoding.Mapping[int] {
	values = slices.Clone(values)
	slices.Sort(values)
	if !ascending {
		slices.Reverse(values)
	}
	m := encoding.NewMapping[int](encoding.BitsFor(len(values) + 2))
	for i, v := range values {
		m.MustAdd(v, uint32(i+1))
	}
	return m
}

// Property: Range matches a scan for arbitrary data, bounds and histories
// on every kind of EBI: an ordered build (plain, over a custom mapping
// with code gaps, or favored), a plain Build of a column whose first value
// is its maximum and of a random column (both in value order), a Build
// over an explicit first-appearance mapping (unordered, so its ranges take
// the IN list), and a Synced over an ordered index with tail appends and
// folds. Between queries it appends existing
// values, new maxima (which keep the order where the lowest free code
// lies above every value code), new minima (which take a code above the
// rest and break it), NULLs (whose code may fall inside the interval),
// deletes, and re-encodings to an unordered mapping and back to an
// ordered one. Every range must match the scan and the IN list's rows and
// report exactly PredictRange; while the code space is ordered it must
// also match the comparison-pass oracle and read at most k vectors, and
// otherwise report the IN list's Stats.
func TestPropOrderedRangeMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		mode := r.Intn(7) // 0 plain, 1 custom gapped mapping, 2 favored, 3 max first, 4 Build, 5 Synced, 6 first appearance
		maxV := 2 + r.Intn(60)
		if mode == 2 {
			maxV = 2 + r.Intn(4) // the favored search enumerates code sets
		}
		col := make([]int, n)
		null := make([]bool, n)
		for i := range col {
			col[i] = r.Intn(maxV)
			null[i] = (mode == 1 || mode == 6) && r.Intn(8) == 0
		}
		var ix *Index[int]
		var err error
		switch mode {
		case 1:
			k := encoding.BitsFor(maxV+1) + 1
			m := encoding.NewMapping[int](k)
			codes := r.Perm(1<<uint(k) - 1)[:maxV]
			sort.Ints(codes)
			for v, c := range codes {
				m.MustAdd(v, uint32(c+1)) // codes from 1: 0 stays void
			}
			ix, err = Build(col, null, &Options[int]{Mapping: m})
		case 2:
			var fav []int
			for v := 0; v < maxV; v++ {
				if slices.Contains(col, v) && r.Intn(2) == 0 {
					fav = append(fav, v)
				}
			}
			var oi *OrderedIndex[int]
			if oi, err = BuildOrdered(col, [][]int{fav}, nil); err == nil {
				ix = oi.Index()
			}
		case 3:
			// First appearance: the maximum, then the rest ascending.
			// Build codes them in value order all the same.
			first := []int{maxV}
			for v := 0; v < maxV; v++ {
				first = append(first, v)
			}
			col, null = append(first, col...), append(make([]bool, len(first)), null...)
			ix, err = Build(col, null, nil)
		case 4:
			ix, err = Build(col, null, nil)
		case 6:
			// A leading 1, 0 puts the mapping out of value order.
			col, null = append([]int{1, 0}, col...), append([]bool{false, false}, null...)
			ix, err = Build(col, null, &Options[int]{Mapping: firstAppearanceMapping(col)})
		default:
			var oi *OrderedIndex[int]
			if oi, err = BuildOrdered(col, nil, nil); err == nil {
				ix = oi.Index()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, ordered := orderedDomain(ix); ordered != (mode != 6) {
			t.Fatalf("seed %d mode %d: build ordered = %v: %v", seed, mode, ordered, ix.Values())
		}
		var target rangeTarget = ix
		if mode == 5 {
			s := NewSynced(ix)
			s.foldThreshold = 1 + r.Intn(16)
			target = s
		}
		deleted := make([]bool, len(col))
		loV, hiV := -1, maxV // the values just below and at the top of the domain so far
		check := func(step string) {
			view := target.View()
			_, ordered := orderedDomain(view.ix)
			for q := 0; q < 6; q++ {
				lo, hi := loV-3+r.Intn(hiV-loV+6), loV-3+r.Intn(hiV-loV+6)
				rows, st := Range(view, lo, hi, 1+r.Intn(2), nil)
				for i, v := range col {
					if rows.Get(i) != (!null[i] && !deleted[i] && v >= lo && v <= hi) {
						t.Fatalf("seed %d mode %d %s: Range(%d, %d) row %d = %v", seed, mode, step, lo, hi, i, rows.Get(i))
					}
				}
				in, inSt := inListRange(view, lo, hi)
				if !rows.Equal(in) {
					t.Fatalf("seed %d mode %d %s: Range(%d, %d) differs from the IN list", seed, mode, step, lo, hi)
				}
				if p := PredictRange(view, lo, hi); st != p {
					t.Fatalf("seed %d mode %d %s: Range(%d, %d) stats %+v, predicted %+v", seed, mode, step, lo, hi, st, p)
				}
				if !ordered {
					if st != inSt {
						t.Fatalf("seed %d mode %d %s: unordered Range(%d, %d) stats %+v, IN list %+v", seed, mode, step, lo, hi, st, inSt)
					}
					continue
				}
				if st.VectorsRead > view.ix.K() {
					t.Fatalf("seed %d mode %d %s: Range(%d, %d) read %d vectors, k=%d", seed, mode, step, lo, hi, st.VectorsRead, view.ix.K())
				}
				if !rows.Equal(rangeByComparison(view.materialize(), lo, hi)) {
					t.Fatalf("seed %d mode %d %s: Range(%d, %d) differs from the comparison oracle", seed, mode, step, lo, hi)
				}
			}
		}
		check("build")
		for op := 0; op < 6; op++ {
			var step string
			var err error
			switch c := r.Intn(10); {
			case c < 3:
				v := r.Intn(maxV)
				step, err = "append", target.Append(v)
				col, null = append(col, v), append(null, false)
			case c == 3:
				hiV++
				step, err = "new maximum", target.Append(hiV)
				col, null = append(col, hiV), append(null, false)
			case c == 4:
				step, err = "new minimum", target.Append(loV)
				col, null = append(col, loV), append(null, false)
				loV--
			case c == 5:
				step, err = "NULL", target.AppendNull()
				col, null = append(col, 0), append(null, true)
			case c < 8:
				row := r.Intn(len(col))
				step, err = "delete", target.Delete(row)
				deleted = append(deleted, make([]bool, len(col)-len(deleted))...)
				deleted[row] = true
			default:
				values := target.View().Values()
				step = "re-encode unordered"
				if err = target.Reencode(orderedMapping(values, false)); err == nil {
					check(step)
					step, err = "re-encode ordered", target.Reencode(orderedMapping(values, true))
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, make([]bool, len(col)-len(deleted))...)
			check(step)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
