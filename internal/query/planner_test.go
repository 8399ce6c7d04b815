package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// plannerFixture builds a table with one int column indexed by both a
// simple bitmap index and an encoded bitmap index.
func plannerFixture(t testing.TB, n, m int) (*Planner, []int64, int) {
	r := rand.New(rand.NewSource(3))
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(r.Intn(m))
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
			t.Fatal(err)
		}
	}
	simple, err := simplebitmap.Build(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := core.BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(tab)
	pl := NewPlanner(ex)
	if err := pl.AddPath("v", AccessPath{Name: "simple", Index: SimpleInt{Ix: simple}, Model: SimpleBitmapModel()}); err != nil {
		t.Fatal(err)
	}
	if err := pl.AddPath("v", AccessPath{Name: "ebi", Index: OrderedEBI{Ix: ordered}, Model: EBIModel(ordered.K())}); err != nil {
		t.Fatal(err)
	}
	return pl, col, ordered.K()
}

func TestPlannerRoutesByDelta(t *testing.T) {
	pl, col, k := plannerFixture(t, 2000, 64)

	// Point selection: simple bitmap costs 1 < k -> pick simple.
	rows, _, choices, err := pl.Eval(Eq{Col: "v", Val: table.IntCell(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Path != "simple" {
		t.Fatalf("Eq routed to %+v, want simple", choices)
	}
	for i, v := range col {
		if rows.Get(i) != (v == 5) {
			t.Fatal("Eq result wrong")
		}
	}

	// Wide range: δ = 32 > k -> pick EBI (the paper's crossover).
	rows, _, choices, err = pl.Eval(Range{Col: "v", Lo: 0, Hi: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Path != "ebi" {
		t.Fatalf("wide Range routed to %+v, want ebi (k=%d)", choices, k)
	}
	for i, v := range col {
		if rows.Get(i) != (v >= 0 && v <= 31) {
			t.Fatal("Range result wrong")
		}
	}

	// Narrow range: δ = 3 < k -> simple wins.
	_, _, choices, err = pl.Eval(Range{Col: "v", Lo: 10, Hi: 12})
	if err != nil {
		t.Fatal(err)
	}
	if choices[0].Path != "simple" {
		t.Fatalf("narrow Range routed to %s, want simple", choices[0].Path)
	}
}

// An open-ended range is as wide as a range gets: its width saturates at
// math.MaxInt instead of wrapping to 0, which every model prices at 0 and
// which would send it down the first registered path (the simple bitmap,
// reading one vector per value).
func TestPlannerOpenRangeIsWide(t *testing.T) {
	pl, _, k := plannerFixture(t, 2000, 64)
	for _, p := range []Range{
		{Col: "v", Lo: 0, Hi: math.MaxInt64},
		{Col: "v", Lo: math.MinInt64, Hi: 40},
		{Col: "v", Lo: math.MinInt64, Hi: math.MaxInt64},
	} {
		rows, st, choices, err := pl.Eval(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(choices) != 1 || choices[0].Path != "ebi" || choices[0].Delta != math.MaxInt {
			t.Fatalf("%s routed to %+v, want ebi with δ=MaxInt", p, choices)
		}
		if st.VectorsRead > k {
			t.Fatalf("%s read %d vectors, k=%d", p, st.VectorsRead, k)
		}
		want, _, err := pl.ex.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Equal(want) {
			t.Fatalf("%s: %d rows, the scan %d", p, rows.Count(), want.Count())
		}
	}
}

func TestPlannerFallback(t *testing.T) {
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	_ = tab.AppendRow(table.IntCell(7))
	pl := NewPlanner(NewExecutor(tab))
	// No paths registered: scan fallback.
	rows, st, choices, err := pl.Eval(Eq{Col: "v", Val: table.IntCell(7)})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Get(0) || st.RowsScanned != 1 {
		t.Fatal("fallback scan wrong")
	}
	if len(choices) != 1 || choices[0].Path != "fallback" {
		t.Fatalf("choices = %+v", choices)
	}
	// Unknown column still errors.
	if _, _, _, err := pl.Eval(Eq{Col: "nope", Val: table.IntCell(1)}); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestPlannerUnsupportedPathFallsThrough(t *testing.T) {
	tab := table.MustNew("t", table.NewColumn("s", table.String))
	_ = tab.AppendRow(table.StrCell("x"))
	simple, _ := simplebitmap.Build([]string{"x"}, nil)
	pl := NewPlanner(NewExecutor(tab))
	_ = pl.AddPath("s", AccessPath{Name: "simple", Index: SimpleStr{Ix: simple}, Model: SimpleBitmapModel()})
	// Range on a string path returns ErrUnsupported; the fallback (scan)
	// then errors because strings have no range scan.
	if _, _, _, err := pl.Eval(Range{Col: "s", Lo: 1, Hi: 2}); err == nil {
		t.Fatal("string range should error end to end")
	}
	// Eq still works via the registered path.
	rows, _, choices, err := pl.Eval(Eq{Col: "s", Val: table.StrCell("x")})
	if err != nil || !rows.Get(0) || choices[0].Path != "simple" {
		t.Fatalf("Eq via path failed: %v %+v", err, choices)
	}
}

func TestPlannerTreeEvaluation(t *testing.T) {
	pl, col, _ := plannerFixture(t, 1000, 32)
	rows, _, choices, err := pl.Eval(And{Preds: []Predicate{
		Range{Col: "v", Lo: 0, Hi: 15},                 // wide -> ebi
		Not{Pred: Eq{Col: "v", Val: table.IntCell(3)}}, // point -> simple
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 2 {
		t.Fatalf("choices = %+v", choices)
	}
	paths := map[string]bool{}
	for _, c := range choices {
		paths[c.Path] = true
	}
	if !paths["ebi"] || !paths["simple"] {
		t.Fatalf("expected both paths used: %+v", choices)
	}
	for i, v := range col {
		want := v >= 0 && v <= 15 && v != 3
		if rows.Get(i) != want {
			t.Fatal("tree result wrong")
		}
	}
}

func TestAddPathValidation(t *testing.T) {
	pl := NewPlanner(NewExecutor(table.MustNew("t")))
	if err := pl.AddPath("v", AccessPath{Name: "bad"}); err == nil {
		t.Fatal("path without index/model should error")
	}
}

func TestCostModels(t *testing.T) {
	if SimpleBitmapModel()(OpIn, 5) != 5 || SimpleBitmapModel()(OpEq, 0) != 0 {
		t.Fatal("SimpleBitmapModel wrong")
	}
	if EBIModel(10)(OpEq, 1) != 10 || EBIModel(10)(OpRange, 100) != 11 {
		t.Fatal("EBIModel wrong")
	}
	if BSIModel(8)(OpEq, 1) != 8 || BSIModel(8)(OpRange, 99) != 16 || BSIModel(8)(OpIn, 3) != 24 {
		t.Fatal("BSIModel wrong")
	}
	if BTreeModel(3, 10)(OpEq, 1) != 3+10*rowCostWeight || BTreeModel(2, 10)(OpRange, math.MaxInt) <= 0 {
		t.Fatal("BTreeModel wrong")
	}
	if !math.IsInf(math.Inf(1), 1) {
		t.Fatal("sanity")
	}
}

// Property: planner results equal plain executor results on random trees.
func TestPropPlannerMatchesExecutor(t *testing.T) {
	pl, col, _ := plannerFixture(t, 400, 20)
	tab := table.MustNew("t2", table.NewColumn("v", table.Int64))
	for _, v := range col {
		_ = tab.AppendRow(table.IntCell(v))
	}
	scan := NewExecutor(tab)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var gen func(depth int) Predicate
		gen = func(depth int) Predicate {
			if depth == 0 || r.Intn(3) == 0 {
				switch r.Intn(3) {
				case 0:
					return Eq{Col: "v", Val: table.IntCell(int64(r.Intn(20)))}
				case 1:
					lo := int64(r.Intn(20))
					return Range{Col: "v", Lo: lo, Hi: lo + int64(r.Intn(10))}
				default:
					return In{Col: "v", Vals: []table.Cell{
						table.IntCell(int64(r.Intn(20))), table.IntCell(int64(r.Intn(20))),
					}}
				}
			}
			switch r.Intn(3) {
			case 0:
				return And{Preds: []Predicate{gen(depth - 1), gen(depth - 1)}}
			case 1:
				return Or{Preds: []Predicate{gen(depth - 1), gen(depth - 1)}}
			default:
				return Not{Pred: gen(depth - 1)}
			}
		}
		p := gen(3)
		got, _, _, err := pl.Eval(p)
		if err != nil {
			return false
		}
		want, _, err := scan.Eval(p)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
