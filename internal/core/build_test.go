package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/encoding"
	"repro/internal/obs"
)

// buildVariant is one way of building a test column: with or without the
// void reservation, NULL rows and a row permutation.
type buildVariant struct {
	void, nulls, reorder bool
}

func (b buildVariant) String() string {
	return fmt.Sprintf("void=%v/nulls=%v/reorder=%v", b.void, b.nulls, b.reorder)
}

func buildVariants() []buildVariant {
	var out []buildVariant
	for _, void := range []bool{true, false} {
		for _, nulls := range []bool{false, true} {
			for _, reorder := range []bool{false, true} {
				out = append(out, buildVariant{void, nulls, reorder})
			}
		}
	}
	return out
}

// options returns the variant's Build options and NULL marks for an n-row
// column: every fifth row NULL and a random permutation, when the variant
// has them.
func (b buildVariant) options(r *rand.Rand, n int) ([]bool, *Options[int64]) {
	var isNull []bool
	if b.nulls {
		isNull = make([]bool, n)
		for i := range isNull {
			isNull[i] = i%5 == 2
		}
	}
	opt := &Options[int64]{DisableVoidReserve: !b.void}
	if b.reorder {
		opt.Reorder = r.Perm(n)
	}
	return isNull, opt
}

// checkValueOrder builds the column with the variant's options and checks
// the code assignment Build gives an unmapped domain: codes 1..m (0..m-1
// without the void reservation) ascending with the values, the k the
// parent's first-appearance coding had, the NULL code above the value
// codes, an ordered code space and rows that decode to the column.
func checkValueOrder[V cmp.Ordered](t *testing.T, column []V, isNull []bool, b buildVariant, perm []int) {
	t.Helper()
	opt := &Options[V]{DisableVoidReserve: !b.void, Reorder: perm}
	ix, err := Build(column, isNull, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	values := ix.Values()
	if !slices.IsSorted(values) {
		t.Fatalf("values in code order %v do not ascend", values)
	}
	if _, ordered := orderedDomain(ix); !ordered {
		t.Fatalf("code space of %v is not ordered", values)
	}
	first, reserved := uint32(0), 0
	if b.void {
		first, reserved = 1, 1
		if v, taken := ix.mapping.ValueOf(0); taken {
			t.Fatalf("void code 0 holds %v", v)
		}
	}
	for i, c := range ix.space().codes {
		if c != first+uint32(i) {
			t.Fatalf("codes %v, want %d..%d", ix.space().codes, first, int(first)+len(values)-1)
		}
	}
	if slices.Contains(isNull, true) {
		reserved++
		if !ix.hasNullCode || ix.nullCode != first+uint32(len(values)) {
			t.Fatalf("NULL code %d (allocated %v), want %d above the value codes", ix.nullCode, ix.hasNullCode, int(first)+len(values))
		}
	}
	if want := encoding.BitsFor(len(values) + reserved); ix.K() != want {
		t.Fatalf("k = %d, want %d for %d values", ix.K(), want, len(values))
	}
	for row := 0; row < ix.Len(); row++ {
		src := row
		if perm != nil {
			src = perm[row]
		}
		v, null, ok := ix.DecodeRow(row)
		if isNull != nil && isNull[src] {
			if !null || ok {
				t.Fatalf("row %d decodes to %v (null %v), want NULL", row, v, null)
			}
			continue
		}
		if !ok || v != column[src] {
			t.Fatalf("row %d decodes to %v (ok %v), want %v", row, v, ok, column[src])
		}
	}
}

// TestBuildCodesInValueOrder: with no mapping and no predicates, Build
// codes int, int64 and string domains in value order whatever order the
// values first appear in, with and without the void reservation, NULLs and
// a row permutation; BuildSynced's int64 index is ordered right after the
// build. Any other V keeps first-appearance order.
func TestBuildCodesInValueOrder(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, b := range buildVariants() {
		t.Run(b.String(), func(t *testing.T) {
			for _, n := range []int{1, 2, 7, 200} {
				isNull, opt := b.options(r, n)
				i64 := make([]int64, n)
				ints := make([]int, n)
				strs := make([]string, n)
				for i := range i64 {
					i64[i] = int64(r.Intn(40)) - 10
					ints[i] = int(i64[i])
					// Decimal strings: "12" sorts before "9".
					strs[i] = strconv.Itoa(r.Intn(40))
				}
				checkValueOrder(t, i64, isNull, b, opt.Reorder)
				checkValueOrder(t, ints, isNull, b, opt.Reorder)
				checkValueOrder(t, strs, isNull, b, opt.Reorder)
				s, err := BuildSynced(i64, isNull, opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, ordered := orderedDomain(s.View().ix); !ordered {
					t.Fatalf("BuildSynced codes %v out of value order", s.Values())
				}
			}
		})
	}
	ix, err := Build([]float64{3, 1, 2, 1, 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Values(); !slices.Equal(got, []float64{3, 1, 2}) {
		t.Fatalf("float64 values in code order %v, want first appearance [3 1 2]", got)
	}
	// NaN never equals itself, so no code can be looked up for it: Build
	// rejects the column rather than write a row as the void code.
	if _, err := Build([]float64{1, math.NaN(), 2}, nil, nil); err == nil {
		t.Fatal("Build accepted a NaN row")
	}
}

// TestBuildFillMatchesAppend: Build writes its vectors a word at a time;
// they must equal, bit for bit, those of an index under the same mapping
// that appends the rows one at a time, around every word boundary, with
// NULLs and with a row permutation. Build counts one append per row.
func TestBuildFillMatchesAppend(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	appends := obs.Default().Counter("ebi_core_appends_total", "")
	r := rand.New(rand.NewSource(64))
	for _, b := range buildVariants() {
		for _, n := range []int{0, 1, 63, 64, 65, 129} {
			isNull, opt := b.options(r, n)
			col := make([]int64, n)
			for i := range col {
				col[i] = int64(r.Intn(20))
			}
			a0 := appends.Value()
			ix, err := Build(col, isNull, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := appends.Value() - a0; got != uint64(n) {
				t.Fatalf("%s n=%d: Build counted %d appends", b, n, got)
			}
			replay, err := New[int64](nil, &Options[int64]{
				Mapping:            ix.Mapping(),
				DisableVoidReserve: opt.DisableVoidReserve,
				NullSupport:        slices.Contains(isNull, true),
			})
			if err != nil {
				t.Fatal(err)
			}
			for row := 0; row < n; row++ {
				src := row
				if opt.Reorder != nil {
					src = opt.Reorder[row]
				}
				if isNull != nil && isNull[src] {
					err = replay.AppendNull()
				} else {
					err = replay.Append(col[src])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if ix.K() != replay.K() || ix.Len() != replay.Len() {
				t.Fatalf("%s n=%d: k=%d len=%d, replay k=%d len=%d", b, n, ix.K(), ix.Len(), replay.K(), replay.Len())
			}
			for i := 0; i < ix.K(); i++ {
				if !ix.Vector(i).Equal(replay.Vector(i)) || ix.Vector(i).Words() != replay.Vector(i).Words() {
					t.Fatalf("%s n=%d: B%d = %s, replay %s", b, n, i, ix.Vector(i), replay.Vector(i))
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("%s n=%d: %v", b, n, err)
			}
		}
	}
}

// ingestShapedWorkload returns 32 value lists over the domain 0..m-1 in
// the shape of a live ingest reader's: half 8-value INs, half 50-wide
// ranges.
func ingestShapedWorkload(r *rand.Rand, m int) [][]int64 {
	var preds [][]int64
	for len(preds) < 32 {
		var vals []int64
		if r.Intn(2) == 0 {
			for _, v := range r.Perm(m)[:8] {
				vals = append(vals, int64(v))
			}
		} else {
			lo := r.Intn(m - 49)
			for v := lo; v < lo+50; v++ {
				vals = append(vals, int64(v))
			}
		}
		preds = append(preds, vals)
	}
	return preds
}

// TestPlanReencodeKeepsOrder: on an ordered Synced index, an ingest-shaped
// workload gets the live value-ordered mapping as its plan whether or not
// FindEncoding prices its own below it (seed 1000: no cheaper; seed 1007:
// 315 against 317), because the workload holds ranges. So the live flip
// keeps every range on the interval cover: Range's Stats equal
// PredictRange's and read at most k vectors. A hot-group IN workload,
// which holds no range, that FindEncoding codes strictly cheaper still
// gets FindEncoding's mapping.
func TestPlanReencodeKeepsOrder(t *testing.T) {
	const m = 1000
	so := &encoding.SearchOptions{ReserveZeroCode: true, UseDontCares: true}
	for _, c := range []struct {
		seed       int64
		searchWins bool
	}{{1000, false}, {1007, true}} {
		r := rand.New(rand.NewSource(c.seed))
		col := make([]int64, 4*m)
		for i := range col {
			col[i] = int64(i % m)
		}
		r.Shuffle(len(col), func(i, j int) { col[i], col[j] = col[j], col[i] })
		s, err := BuildSynced(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		preds := ingestShapedWorkload(r, m)
		if !holdsRange(s.Values(), preds) {
			t.Fatalf("seed %d: the ingest-shaped workload holds no range", c.seed)
		}
		plan, err := s.PlanReencode(preds, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		searched, err := encoding.FindEncoding(s.Values(), preds, so)
		if err != nil {
			t.Fatal(err)
		}
		searchedCost, err := encoding.WeightedCost(searched, preds, nil, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if wins := searchedCost < plan.CurrentCost; wins != c.searchWins {
			t.Fatalf("seed %d: the search prices %d against the live mapping's %d; the case no longer shows what it names", c.seed, searchedCost, plan.CurrentCost)
		}
		if plan.NewCost != plan.CurrentCost || plan.Mapping.String() != s.View().ix.mapping.String() {
			t.Fatalf("seed %d: plan cost %d (live %d) and mapping differ from the live mapping", c.seed, plan.NewCost, plan.CurrentCost)
		}
		if err := s.Reencode(plan.Mapping); err != nil {
			t.Fatal(err)
		}
		view := s.View()
		if _, ordered := orderedDomain(view.ix); !ordered {
			t.Fatalf("seed %d: the flip left the code space out of value order", c.seed)
		}
		for _, p := range preds {
			lo, hi := slices.Min(p), slices.Max(p)
			rows, st := Range(view, lo, hi, 1, nil)
			if want := PredictRange(view, lo, hi); st != want || st.VectorsRead > view.ix.K() {
				t.Fatalf("seed %d: Range(%d, %d) stats %+v, predicted %+v (k=%d)", c.seed, lo, hi, st, want, view.ix.K())
			}
			n := 0
			for _, v := range col {
				if v >= lo && v <= hi {
					n++
				}
			}
			if rows.Count() != n {
				t.Fatalf("seed %d: Range(%d, %d) selects %d rows, want %d", c.seed, lo, hi, rows.Count(), n)
			}
		}
	}

	// Every third value of 0..23 as one hot group: no order-preserving
	// mapping packs it into a subcube, the search does.
	small := make([]int64, 48)
	for i := range small {
		small[i] = int64(i % 24)
	}
	hot := []int64{0, 3, 6, 9, 12, 15, 18, 21}
	ix, err := Build(small, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	workload := [][]int64{hot, hot, {1, 4, 7, 10}}
	if holdsRange(ix.Values(), workload) {
		t.Fatal("the hot-group workload holds a range")
	}
	plan, err := ix.PlanReencode(workload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	searched, err := encoding.FindEncoding(ix.Values(), workload, so)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encoding.WeightedCost(searched, workload, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if want >= plan.CurrentCost {
		t.Fatalf("the search prices %d, not below the live mapping's %d; the case no longer shows the search winning", want, plan.CurrentCost)
	}
	if plan.NewCost != want || plan.Mapping.String() != searched.String() {
		t.Fatalf("plan cost %d, want the search's %d and its mapping", plan.NewCost, want)
	}
	if ok, _ := encoding.IsOrderPreserving(plan.Mapping, ix.Values()); ok {
		t.Fatal("hot-group plan is order preserving; the case no longer shows the search winning")
	}
}

// TestHoldsRange: a range is two or more distinct values next to each
// other in the code-order domain, whatever gap lies between the values
// themselves and in whatever order the predicate lists them.
func TestHoldsRange(t *testing.T) {
	domain := []int{1, 2, 3, 5, 8}
	for _, c := range []struct {
		preds [][]int
		want  bool
	}{
		{[][]int{{1, 2}}, true},
		{[][]int{{8, 5, 3}}, true},
		{[][]int{{3, 5}}, true},
		{[][]int{{1, 3}}, false},
		{[][]int{{2}}, false},
		{[][]int{{2, 2}}, false},
		{[][]int{{1, 5}, {2, 8}}, false},
		{[][]int{{1, 5}, {5, 8}}, true},
	} {
		if got := holdsRange(domain, c.preds); got != c.want {
			t.Errorf("holdsRange(%v, %v) = %v, want %v", domain, c.preds, got, c.want)
		}
	}
}
