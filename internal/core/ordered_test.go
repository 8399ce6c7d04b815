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
)

func TestBuildOrderedBasics(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oi.Len() != len(col) {
		t.Fatalf("Len = %d", oi.Len())
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

func TestOrderedFromRejectsUnorderedMapping(t *testing.T) {
	// A non-monotone mapping must be rejected.
	m := encoding.NewMapping[int64](3)
	m.MustAdd(10, 5)
	m.MustAdd(20, 2) // larger value, smaller code
	ix, err := Build([]int64{10, 20}, nil, &Options[int64]{Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OrderedFrom(ix); err == nil {
		t.Fatal("non-order-preserving mapping accepted")
	}
}

func TestRangeViaReductionAgrees(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, _ := BuildOrdered(col, nil, nil)
	a, _ := oi.Range(102, 105)
	b, _ := oi.RangeViaReduction(102, 105)
	if !a.Equal(b) {
		t.Fatalf("Range %s != RangeViaReduction %s", a.String(), b.String())
	}
	empty, _ := oi.RangeViaReduction(300, 400)
	if empty.Any() {
		t.Fatal("out-of-domain reduction range should be empty")
	}
}

// TestOrderedRangeAfterReencode re-encodes an ordered index's inner index
// in place. A mapping that reverses the code order leaves the build's
// interval cover selecting the wrong codes, so Range must fall back to the
// IN-list; an order-preserving one must keep matching the scan too.
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
			if st != oi.PredictRangeStats(lo, hi) {
				t.Fatalf("%s: Range(%d, %d) stats %+v, predicted %+v", tc.name, lo, hi, st, oi.PredictRangeStats(lo, hi))
			}
			if viaRed, _ := oi.RangeViaReduction(lo, hi); !rows.Equal(viaRed) {
				t.Fatalf("%s: Range(%d, %d) differs from RangeViaReduction", tc.name, lo, hi)
			}
		}
	}
}

// cmpCode is the O'Neil–Quass MSB-first comparison pass Range used before
// interval covers: the rows whose code is below c and those whose code
// equals c. It stays here as an oracle independent of boolmin.
func cmpCode[V cmp.Ordered](oi *OrderedIndex[V], c uint32) (lt, eq *bitvec.Vector) {
	eq = bitvec.New(oi.Len())
	eq.Fill()
	lt = bitvec.New(oi.Len())
	for i := oi.K() - 1; i >= 0; i-- {
		vec := oi.ix.vectors[i]
		if c&(1<<uint(i)) != 0 {
			lt.Or(bitvec.AndNot(eq, vec))
			eq.And(vec)
		} else {
			eq.AndNot(vec)
		}
	}
	return lt, eq
}

// rangeByComparison answers Range(lo, hi) with two comparison passes: the
// rows whose code lies between the codes of the first value >= lo and the
// last value <= hi, less the NULL rows.
func rangeByComparison[V cmp.Ordered](oi *OrderedIndex[V], lo, hi V) *bitvec.Vector {
	i := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] >= lo })
	j := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] > hi })
	if i >= j {
		return bitvec.New(oi.Len())
	}
	cl, _ := oi.ix.mapping.CodeOf(oi.sorted[i])
	ch, _ := oi.ix.mapping.CodeOf(oi.sorted[j-1])
	ltHi, eqHi := cmpCode(oi, ch)
	ltLo, _ := cmpCode(oi, cl)
	rows := ltHi.Or(eqHi).AndNot(ltLo)
	if oi.ix.hasNullCode {
		_, nulls := cmpCode(oi, oi.ix.nullCode)
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
	oi, err := OrderedFrom(ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{10, 50}, {15, 35}, {20, 30}, {10, 20}, {30, 50}} {
		rows, st := oi.Range(r[0], r[1])
		if want := rangeByComparison(oi, r[0], r[1]); !rows.Equal(want) {
			t.Fatalf("Range(%d, %d) = %s, want %s", r[0], r[1], rows, want)
		}
		if st.VectorsRead > oi.K() || st != oi.PredictRangeStats(r[0], r[1]) {
			t.Fatalf("Range(%d, %d) stats %+v, predicted %+v (k=%d)", r[0], r[1], st, oi.PredictRangeStats(r[0], r[1]), oi.K())
		}
	}
}

// Property: Range matches a scan for arbitrary data and bounds, on the
// plain ordered encoding, on order-preserving mappings with code gaps (a
// custom one, or a favored build over a small domain), with values
// appended after the build (which take whatever code is free), NULL rows
// (whose code may fall inside the interval) and deleted rows. Rows must
// equal the scan and the IN-list rewrite, and the comparison-pass oracle
// while the domain is the build's; Range must read at most k vectors and
// report exactly PredictRangeStats.
func TestPropOrderedRangeMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		mode := r.Intn(3) // 0 plain, 1 custom gapped mapping, 2 favored
		maxV := 2 + r.Intn(60)
		if mode == 2 {
			maxV = 2 + r.Intn(4) // the favored search enumerates code sets
		}
		col := make([]int, n)
		null := make([]bool, n)
		for i := range col {
			col[i] = r.Intn(maxV)
			null[i] = mode == 1 && r.Intn(8) == 0
		}
		var oi *OrderedIndex[int]
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
			var ix *Index[int]
			if ix, err = Build(col, null, &Options[int]{Mapping: m}); err == nil {
				oi, err = OrderedFrom(ix)
			}
		case 2:
			var fav []int
			for v := 0; v < maxV; v++ {
				if slices.Contains(col, v) && r.Intn(2) == 0 {
					fav = append(fav, v)
				}
			}
			oi, err = BuildOrdered(col, [][]int{fav}, nil)
		default:
			oi, err = BuildOrdered(col, nil, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if mode != 1 && r.Intn(2) == 0 {
			for i := 1 + r.Intn(3); i > 0; i-- {
				v := r.Intn(maxV+4) - 2
				if err := oi.Index().Append(v); err != nil {
					t.Fatal(err)
				}
				col, null = append(col, v), append(null, false)
			}
		}
		if mode != 1 {
			for i := r.Intn(4); i > 0; i-- {
				if err := oi.Index().AppendNull(); err != nil {
					t.Fatal(err)
				}
				col, null = append(col, 0), append(null, true)
			}
		}
		deleted := make([]bool, len(col))
		for i := r.Intn(4); i > 0; i-- {
			row := r.Intn(len(col))
			if err := oi.Index().Delete(row); err != nil {
				t.Fatal(err)
			}
			deleted[row] = true
		}
		grown := oi.Index().Cardinality() != len(oi.sorted)
		for q := 0; q < 8; q++ {
			lo, hi := r.Intn(maxV+6)-3, r.Intn(maxV+6)-3
			rows, st := oi.Range(lo, hi)
			for i, v := range col {
				if rows.Get(i) != (!null[i] && !deleted[i] && v >= lo && v <= hi) {
					t.Fatalf("seed %d mode %d: Range(%d, %d) row %d = %v", seed, mode, lo, hi, i, rows.Get(i))
				}
			}
			if !grown && !rows.Equal(rangeByComparison(oi, lo, hi)) {
				t.Fatalf("seed %d mode %d: Range(%d, %d) differs from the comparison oracle", seed, mode, lo, hi)
			}
			if viaRed, _ := oi.RangeViaReduction(lo, hi); !rows.Equal(viaRed) {
				t.Fatalf("seed %d mode %d: Range(%d, %d) differs from RangeViaReduction", seed, mode, lo, hi)
			}
			if st.VectorsRead > oi.K() || st != oi.PredictRangeStats(lo, hi) {
				t.Fatalf("seed %d mode %d: Range(%d, %d) stats %+v, predicted %+v (k=%d)",
					seed, mode, lo, hi, st, oi.PredictRangeStats(lo, hi), oi.K())
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
