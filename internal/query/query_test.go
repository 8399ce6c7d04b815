package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// fixture builds a small sales table: region (string), qty (int64).
func fixture(t *testing.T) *table.Table {
	t.Helper()
	tab := table.MustNew("sales",
		table.NewColumn("region", table.String),
		table.NewColumn("qty", table.Int64),
	)
	rows := []struct {
		region string
		qty    int64
	}{
		{"north", 5}, {"south", 12}, {"north", 7}, {"east", 12}, {"south", 3}, {"north", 12},
	}
	for _, r := range rows {
		if err := tab.AppendRow(table.StrCell(r.region), table.IntCell(r.qty)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestEvalScanFallback(t *testing.T) {
	tab := fixture(t)
	ex := NewExecutor(tab)
	rows, st, err := ex.Eval(Eq{Col: "region", Val: table.StrCell("north")})
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "101001" {
		t.Fatalf("Eq scan = %s", rows.String())
	}
	if st.RowsScanned != 6 {
		t.Fatalf("expected a scan, got %+v", st)
	}
	rows, _, err = ex.Eval(Range{Col: "qty", Lo: 5, Hi: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "111101" {
		t.Fatalf("Range scan = %s", rows.String())
	}
	rows, _, err = ex.Eval(In{Col: "qty", Vals: []table.Cell{table.IntCell(3), table.IntCell(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "100010" {
		t.Fatalf("In scan = %s", rows.String())
	}
}

func TestEvalErrors(t *testing.T) {
	tab := fixture(t)
	ex := NewExecutor(tab)
	if _, _, err := ex.Eval(Eq{Col: "nope", Val: table.IntCell(1)}); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, _, err := ex.Eval(Range{Col: "region", Lo: 1, Hi: 2}); err == nil {
		t.Fatal("range on string column should error")
	}
	if _, _, err := ex.Eval(And{}); err == nil {
		t.Fatal("empty AND should error")
	}
	if _, _, err := ex.Eval(Or{}); err == nil {
		t.Fatal("empty OR should error")
	}
	if _, _, err := ex.Eval(nil); err == nil {
		t.Fatal("nil predicate should error")
	}
}

func TestCooperativityAndOrNot(t *testing.T) {
	tab := fixture(t)
	ex := NewExecutor(tab)
	// region = north AND qty = 12 — the paper's A=a_i AND B=b_j case.
	p := And{Preds: []Predicate{
		Eq{Col: "region", Val: table.StrCell("north")},
		Eq{Col: "qty", Val: table.IntCell(12)},
	}}
	rows, _, err := ex.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "000001" {
		t.Fatalf("AND = %s", rows.String())
	}
	rows, _, err = ex.Eval(Or{Preds: []Predicate{
		Eq{Col: "region", Val: table.StrCell("east")},
		Eq{Col: "qty", Val: table.IntCell(3)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "000110" {
		t.Fatalf("OR = %s", rows.String())
	}
	rows, _, err = ex.Eval(Not{Pred: Eq{Col: "region", Val: table.StrCell("north")}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "010110" {
		t.Fatalf("NOT = %s", rows.String())
	}
}

func TestPredicateStrings(t *testing.T) {
	p := And{Preds: []Predicate{
		Eq{Col: "r", Val: table.StrCell("x")},
		Not{Pred: Range{Col: "q", Lo: 1, Hi: 2}},
		Or{Preds: []Predicate{In{Col: "q", Vals: []table.Cell{table.IntCell(1), table.NullCell()}}}},
	}}
	s := p.String()
	for _, want := range []string{`r = "x"`, "NOT", "1 <= q <= 2", "IN {1,NULL}"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// All adapters must answer leaf predicates identically to the scan
// fallback.
func TestAdaptersAgreeWithScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 500
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	vals := make([]int64, n)
	uvals := make([]uint64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(40))
		uvals[i] = uint64(vals[i])
		if err := tab.AppendRow(table.IntCell(vals[i])); err != nil {
			t.Fatal(err)
		}
	}
	ebi, err := core.Build(vals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := core.BuildOrdered(vals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	simple, err := simplebitmap.Build(vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	adapters := map[string]ColumnIndex{
		"ebi":     EBIInt{Ix: ebi},
		"ordered": OrderedEBI{Ix: ordered},
		"simple":  SimpleInt{Ix: simple},
		"bsi":     BSIAdapter{Ix: bsi.Build(uvals)},
		"btree":   BTreeAdapter{Ix: btree.Build(uvals, 16), NRows: n},
	}

	scan := NewExecutor(tab)
	preds := []Predicate{
		Eq{Col: "v", Val: table.IntCell(7)},
		Eq{Col: "v", Val: table.IntCell(999)}, // absent value
		In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(5), table.IntCell(39)}},
		Range{Col: "v", Lo: 10, Hi: 30},
		Range{Col: "v", Lo: -5, Hi: 3},
		And{Preds: []Predicate{
			Range{Col: "v", Lo: 0, Hi: 20},
			Not{Pred: Eq{Col: "v", Val: table.IntCell(10)}},
		}},
	}
	for name, ad := range adapters {
		ex := NewExecutor(tab)
		ex.Use("v", ad)
		for _, p := range preds {
			want, _, err := scan.Eval(p)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ex.Eval(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s disagrees on %s:\n got %s\nwant %s", name, p, got.String(), want.String())
			}
		}
	}
}

func TestStringAdaptersAgree(t *testing.T) {
	tab := fixture(t)
	col := tab.Column("region").Strs()
	ebi, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	simple, err := simplebitmap.Build(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewExecutor(tab)
	for name, ad := range map[string]ColumnIndex{
		"ebi":    EBIStr{Ix: ebi},
		"simple": SimpleStr{Ix: simple},
	} {
		ex := NewExecutor(tab)
		ex.Use("region", ad)
		for _, p := range []Predicate{
			Eq{Col: "region", Val: table.StrCell("south")},
			In{Col: "region", Vals: []table.Cell{table.StrCell("north"), table.StrCell("east")}},
		} {
			want, _, _ := scan.Eval(p)
			got, _, err := ex.Eval(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s disagrees on %s", name, p)
			}
		}
		// Range on strings falls back to scan — which errors on string
		// columns.
		if _, _, err := ex.Eval(Range{Col: "region", Lo: 1, Hi: 2}); err == nil {
			t.Fatalf("%s: string Range should error via fallback", name)
		}
	}
}

// The headline cooperativity claim: an AND across two indexed attributes
// reads only the two indexes' vectors, never scanning the table.
func TestCooperativityReadsOnlyVectors(t *testing.T) {
	tab := fixture(t)
	region, _ := core.Build(tab.Column("region").Strs(), nil, nil)
	qty, _ := core.Build(tab.Column("qty").Ints(), nil, nil)
	ex := NewExecutor(tab)
	ex.Use("region", EBIStr{Ix: region})
	ex.Use("qty", EBIInt{Ix: qty})
	rows, st, err := ex.Eval(And{Preds: []Predicate{
		Eq{Col: "region", Val: table.StrCell("north")},
		Eq{Col: "qty", Val: table.IntCell(12)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.String() != "000001" {
		t.Fatalf("AND = %s", rows.String())
	}
	if st.RowsScanned != 0 {
		t.Fatalf("cooperative AND scanned %d rows, want 0", st.RowsScanned)
	}
	if st.VectorsRead == 0 || st.VectorsRead > region.K()+qty.K() {
		t.Fatalf("VectorsRead = %d, want in (0, %d]", st.VectorsRead, region.K()+qty.K())
	}
}

// Property: arbitrary predicate trees evaluated with EBI indexes match the
// scan fallback.
func TestPropTreesMatchScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		tab := table.MustNew("t",
			table.NewColumn("a", table.Int64),
			table.NewColumn("b", table.Int64),
		)
		av := make([]int64, n)
		bv := make([]int64, n)
		for i := 0; i < n; i++ {
			av[i] = int64(r.Intn(10))
			bv[i] = int64(r.Intn(20))
			if tab.AppendRow(table.IntCell(av[i]), table.IntCell(bv[i])) != nil {
				return false
			}
		}
		aIx, err := core.Build(av, nil, nil)
		if err != nil {
			return false
		}
		bIx, err := core.Build(bv, nil, nil)
		if err != nil {
			return false
		}
		ex := NewExecutor(tab)
		ex.Use("a", EBIInt{Ix: aIx})
		ex.Use("b", EBIInt{Ix: bIx})
		scan := NewExecutor(tab)

		var gen func(depth int) Predicate
		gen = func(depth int) Predicate {
			if depth == 0 || r.Intn(3) == 0 {
				switch r.Intn(3) {
				case 0:
					return Eq{Col: "a", Val: table.IntCell(int64(r.Intn(10)))}
				case 1:
					lo := int64(r.Intn(20))
					return Range{Col: "b", Lo: lo, Hi: lo + int64(r.Intn(10))}
				default:
					return In{Col: "b", Vals: []table.Cell{
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
		got, _, err := ex.Eval(p)
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
